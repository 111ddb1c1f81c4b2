import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path
from math import gcd
from operator import mul

import pytest

from helpers import (
    FIVE_WEIGHTS,
    brute_force_kernel_vectors,
    facet_rays,
    greedy_independent_rows,
    leibniz_determinant,
    minor_rank,
    minors,
    random_weights,
    reference_base_normals,
    reference_hermite,
    subprocess_env,
)
from torsep.cones import WeightSystem, homogenize
from torsep.errors import InputError
from torsep.linalg import (
    _hermite,
    combine,
    count_nonrelations,
    determinant,
    independent_rows,
    inverse_columns,
    kernel_lattice,
    lattice_equal,
    primitive_vector,
    rank,
    row_hnf,
    solve_exact,
)


def test_rank_identity():
    assert rank(((1, 0), (0, 1))) == 2


def test_rank_three_columns():
    assert rank([(1, 1), (2, 0), (0, 2)]) == 2


def test_rank_zero_matrix():
    assert rank(((0, 0, 0), (0, 0, 0))) == 0
    assert rank(()) == 0


def test_kernel_single_generator():
    vectors = [(1, 1), (2, 0), (0, 2)]
    basis = kernel_lattice(vectors)
    assert basis == ((2, -1, -1),)
    # Expected value frozen from exhaustive enumeration: every kernel
    # vector with sup-norm <= 3 must be an integer multiple.
    hnf = row_hnf(basis)
    for c in brute_force_kernel_vectors(vectors, bound=3):
        assert row_hnf((*hnf, c)) == hnf


def test_kernel_injective_map_is_trivial():
    assert kernel_lattice(((1, 0), (0, 1))) == ()


def test_kernel_of_five_weight_example():
    basis = kernel_lattice(FIVE_WEIGHTS.weights)
    assert len(basis) == 2
    hnf = row_hnf(basis)
    assert row_hnf((*hnf, (3, -1, 1, 0, -2))) == hnf


def test_kernel_count_and_saturation_random():
    rng = random.Random(7)
    for _ in range(40):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4)))
        basis = kernel_lattice(ws.weights)
        assert len(basis) == ws.n - rank(ws.weights)
        for c in basis:
            assert all(x == 0 for x in combine(ws.weights, c))
        hnf = row_hnf(basis)
        for c in brute_force_kernel_vectors(ws.weights, bound=3):
            assert row_hnf((*hnf, c)) == hnf


def test_row_hnf_is_basis_invariant():
    rows = ((2, 4, 6), (1, 1, 1))
    mixed = ((1, 1, 1), (3, 5, 7), (2, 4, 6))
    assert lattice_equal(rows, mixed)
    assert not lattice_equal(rows, ((1, 0, 0),))


def test_lattice_equal_matches_comparing_both_forms():
    """``lattice_equal(a, b)`` is ``row_hnf(a) == row_hnf(b)`` when b is a's
    Hermite form (as tuples, as lists, or as an iterator), a permutation
    of that form, another basis of the same lattice, or a different
    lattice; seeded families with up to 4 rows of length up to 6."""
    rng = random.Random(4077)
    outcomes = []
    for _ in range(300):
        d, n = rng.randint(1, 4), rng.randint(1, 6)
        a = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(d)]
        form = row_hnf(a)
        shuffled = rng.sample(form, len(form))
        other = [list(row) for row in form]
        for _ in range(4):  # unimodular row operations
            if len(other) > 1:
                i, j = rng.sample(range(len(other)), 2)
                q = rng.randint(-2, 2)
                other[i] = [x + q * y for x, y in zip(other[i], other[j])]
            if other:
                k = rng.randrange(len(other))
                other[k] = [-x for x in other[k]]
        different = ([(2 * x for x in form[0]), *form[1:]] if form
                     else [tuple(rng.randint(-1, 1) for _ in range(n))])
        different = [tuple(row) for row in different]
        for b in (form, [list(row) for row in form], shuffled, other, different):
            expected = row_hnf(a) == row_hnf(b)
            assert lattice_equal(a, b) == expected, (a, b)
            assert lattice_equal(a, iter(list(b))) == expected, (a, b)
            outcomes.append(expected)
    assert outcomes.count(True) >= 1000 and outcomes.count(False) >= 200


def test_count_nonrelations_matches_combine():
    """``count_nonrelations(w, vectors)`` is ``sum(any(combine(w, v)) for v in
    vectors)`` on seeded families mixing lattice relations and other vectors,
    and refuses a vector of the wrong length as ``combine`` does."""
    rng = random.Random(5081)
    relations = 0
    for _ in range(300):
        ws = random_weights(rng, rng.randint(1, 4), rng.randint(1, 7))
        kernel = kernel_lattice(ws.weights)
        vectors = []
        for _ in range(rng.randint(0, 8)):
            if kernel and rng.random() < 0.6:
                q = [rng.randint(-2, 2) for _ in kernel]
                vectors.append(tuple(sum(map(mul, q, column)) for column in zip(*kernel)))
            else:
                vectors.append(tuple(rng.randint(-2, 2) for _ in range(ws.n)))
        expected = sum(any(combine(ws.weights, v)) for v in vectors)
        assert count_nonrelations(ws.weights, vectors) == expected, (ws, vectors)
        assert count_nonrelations(ws.weights, iter(vectors)) == expected
        relations += len(vectors) - expected
    assert relations >= 300
    with pytest.raises(InputError, match=r"^2 coefficients for 3 vectors$"):
        combine(((1,), (2,), (3,)), (1, 0))
    with pytest.raises(InputError, match=r"^2 coefficients for 3 vectors$"):
        count_nonrelations(((1,), (2,), (3,)), [(1, 1, -1), (1, 0)])


def test_primitive_vector():
    from fractions import Fraction

    assert primitive_vector((4, -6, 2)) == (2, -3, 1)
    assert primitive_vector((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert primitive_vector((0, 0)) == (0, 0)


def test_determinant_and_independent_rows():
    m = ((2, 0), (0, 3), (2, 3))
    rows = independent_rows(m)
    assert len(rows) == 2
    assert determinant([[m[i][j] for j in range(2)] for i in rows]) != 0
    assert determinant(((1, 2), (3, 4))) == -2


def test_matrix_validation():
    assert combine(((1, 0), (2, 1)), (3, 4)) == (11, 4)
    with pytest.raises(InputError):
        combine(((1,), (2,)), (1, 2, 3))


def _random_matrices(seed, count, max_d=5, max_n=8):
    """Seeded integer matrices with entries up to +-7, sparse entries,
    and forced zero rows, zero columns and duplicate rows."""
    rng = random.Random(seed)
    for _ in range(count):
        d, n = rng.randint(1, max_d), rng.randint(1, max_n)
        rows = [[rng.randint(-7, 7) if rng.random() < 0.7 else 0 for _ in range(n)]
                for _ in range(d)]
        for _ in range(rng.randint(0, 2)):
            kind = rng.randrange(3)
            if kind == 0:
                rows[rng.randrange(d)] = [0] * n
            elif kind == 1:
                j = rng.randrange(n)
                for row in rows:
                    row[j] = 0
            else:
                rows[rng.randrange(d)] = list(rows[rng.randrange(d)])
        yield rows


def test_rank_and_independent_rows_match_minor_references():
    for rows in _random_matrices(11, 300):
        assert rank(rows) == minor_rank(rows), rows
        assert independent_rows(rows) == greedy_independent_rows(rows), rows


def test_determinant_matches_leibniz():
    for rows in _random_matrices(12, 400):
        k = min(len(rows), len(rows[0]))
        square = [row[:k] for row in rows[:k]]
        assert determinant(square) == leibniz_determinant(square), square
    with pytest.raises(InputError):
        determinant([[1, 2]])


def test_solve_exact_by_substitution_or_rank():
    rng = random.Random(13)
    for rows in _random_matrices(13, 300):
        n = len(rows[0])
        if rng.random() < 0.5:
            x0 = [rng.randint(-3, 3) for _ in range(n)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in rows]
        else:
            rhs = [rng.randint(-7, 7) for _ in rows]
        sol = solve_exact(rows, rhs)
        if sol is None:
            augmented = [row + [b] for row, b in zip(rows, rhs)]
            assert minor_rank(augmented) > minor_rank(rows), (rows, rhs)
        else:
            assert [sum(a * x for a, x in zip(row, sol)) for row in rows] == rhs


def test_kernel_lattice_is_a_canonical_saturated_basis():
    for rows in _random_matrices(14, 300):
        columns = tuple(zip(*rows))
        basis = kernel_lattice(columns)
        assert basis == row_hnf(basis)
        assert len(basis) == len(columns) - minor_rank(rows)
        for c in basis:
            assert all(x == 0 for x in combine(columns, c))
        if basis:
            # A basis spans a saturated lattice iff its maximal minors
            # are coprime.
            g = 0
            for m in minors(basis, len(basis)):
                g = gcd(g, m)
                if g == 1:
                    break
            assert g == 1, rows


def test_hermite_matches_the_least_remainder_reference():
    """``_hermite`` gives the form and sign of repeated
    least-remainder reduction (``helpers.reference_hermite``): seeded
    matrices up to 8 x 10 with entries up to 50 in absolute value, some
    with zero rows or columns, square ones among them, and the empty
    input."""
    rng = random.Random(211)
    cases = [[], [[0, 0]], [[0], [0], [3]], [[-4]]]
    for k in range(1500):
        m = rng.randint(1, 8)
        n = m if k % 4 == 0 else rng.randint(1, 10)
        bound = rng.choice((1, 3, 50))
        mat = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        if k % 5 == 1:
            mat[rng.randrange(m)] = [0] * n
        if k % 7 == 2:
            col = rng.randrange(n)
            for row in mat:
                row[col] = 0
        cases.append(mat)
    signs = set()
    for mat in cases:
        got = _hermite(mat)
        assert got == reference_hermite(mat), mat
        if mat and len(mat) == len(mat[0]):
            signs.add(got[1])
    assert signs == {-1, 0, 1}


# sha256 of repr(kernel_lattice(V)) for the homogenized d=6 draw of
# random_weights(random.Random(seed), 6, n, 3).  The (40, 0) digest was
# taken with the earlier one-step elimination, whose kernel it matches.
WIDE_KERNEL_DIGESTS = {
    (40, 0): "48fa982c57e78f707f643ad560c7efc6bb2ca2b766ebc22a02fc900c84561c0f",
    (60, 0): "270e91c0fbd1d51cc3e720fec05f3ffaad9b3183b993370f492ef6c4b77018ad",
    (60, 1): "3e1760e763cbfc69b16df83a529bff499078d006bc31bfa4c349063b3c02ff3a",
}


@pytest.mark.parametrize("n, seed", sorted(WIDE_KERNEL_DIGESTS))
def test_wide_kernel_lattice_stays_small(n, seed):
    """The relation lattice of n homogenized weights in Z^7 is computed in
    a subprocess under a 30 s timeout (it takes hundredths of a second;
    an elimination whose lower rows grow with each column takes minutes
    at n = 60), and it is the kernel built on ``reference_hermite``."""
    vectors = homogenize(random_weights(random.Random(seed), 6, n, 3)).weights
    done = subprocess.run(
        [sys.executable, "-c", "import json, sys; from torsep.linalg import kernel_lattice; "
         "print(json.dumps(kernel_lattice(json.load(sys.stdin))))"],
        input=json.dumps(vectors), env=subprocess_env(), capture_output=True, text=True,
        timeout=30, check=True)
    kernel = tuple(map(tuple, json.loads(done.stdout)))
    assert all(not any(combine(vectors, c)) for c in kernel)
    assert len(kernel) == n - rank(vectors)
    form, _ = reference_hermite(
        (*v, *(int(i == j) for i in range(n))) for j, v in enumerate(vectors))
    assert kernel == tuple(row[7:] for row in form if not any(row[:7]))
    assert hashlib.sha256(repr(kernel).encode()).hexdigest() == WIDE_KERNEL_DIGESTS[n, seed]


def _check_inverse_columns(rows):
    """``inverse_columns(rows)`` is (C, D) with B C = D I and D >= 1, and
    each column made primitive is the kernel-built base normal."""
    columns, denom = inverse_columns(rows)
    r = len(rows)
    assert denom >= 1
    assert [[sum(a * b for a, b in zip(row, col)) for col in columns] for row in rows] == \
        [[denom * int(i == j) for j in range(r)] for i in range(r)]
    assert [primitive_vector(col) for col in columns] == reference_base_normals(rows), rows


def test_inverse_columns_match_the_kernel_base_normals():
    """Random invertible integer matrices, r = 1..6, entries in [-5, 5]."""
    assert inverse_columns([]) == ((), 1)
    rng = random.Random(37)
    for r in range(1, 7):
        found = 0
        while found < 40:
            rows = [tuple(rng.randint(-5, 5) for _ in range(r)) for _ in range(r)]
            if determinant(rows):
                _check_inverse_columns(rows)
                found += 1


def test_inverse_columns_match_on_every_catalog_base():
    """Every double-description base of the decide-wide and faces-wide
    benchmark catalogs, in the mode of its entry."""
    catalog = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                          / "catalog.json").read_text(encoding="utf-8"))
    bases = 0
    for name in ("decide-wide", "faces-wide"):
        for entry in catalog["workloads"][name]:
            ws = WeightSystem(entry["d"], entry["weights"])
            if "projective" in entry["argv"]:
                ws = homogenize(ws)
            rays, r = facet_rays(ws)
            if r:
                _check_inverse_columns([rays[k] for k in independent_rows(rays)])
                bases += 1
    assert bases == 140


@pytest.mark.parametrize("rows, message", [
    ([[0]], "invertible"),
    ([[1, 2], [2, 4]], "invertible"),
    ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], "invertible"),
    ([[1, 2]], "square"),
    ([[1], [2]], "square"),
    ([[1, 0], [0]], "square"),
    ([[1, 0], [0, 1, 0]], "square"),
])
def test_inverse_columns_refuses_a_singular_or_non_square_matrix(rows, message):
    with pytest.raises(InputError, match=message):
        inverse_columns(rows)
