import random
import sys
from fractions import Fraction
from hashlib import sha256

import pytest

from helpers import (
    FIVE_WEIGHTS,
    M_WEIGHTS,
    N_WEIGHTS,
    QUARTET_WEIGHTS,
    apply_unimodular,
    brute_force_cone_member,
    brute_force_faces,
    clear_cone_caches,
    facet_rays,
    fuzz_weights,
    random_unimodular,
    random_weights,
    reference_dual_extreme_rays,
)
from torsep import cones, linalg, lp
from torsep.cones import (
    WeightSystem,
    edge_conditions,
    enumerate_faces,
    face_witness,
    facets,
    homogenize,
    is_strictly_convex,
    minimal_face,
    smallest_face,
    supports_face,
)
from torsep.errors import InputError, InternalError, ResourceGuardError
from torsep.linalg import dot, is_zero_vector, primitive_vector, rank
from torsep.strata import characteristic_pairs, oracle_sp, oracle_wsp, strata


def test_pointed_quadrant():
    res = is_strictly_convex(WeightSystem.from_rows([[2, 0], [0, 2], [1, 1]]))
    assert res.pointed
    assert all(dot(res.functional, w) >= 1 for w in [(2, 0), (0, 2), (1, 1)])


def test_not_pointed_line():
    ws = WeightSystem.from_rows([[1], [-1]])
    res = is_strictly_convex(ws)
    assert not res.pointed
    c = res.relation
    assert all(x >= 0 for x in c) and any(x > 0 for x in c)
    assert sum(c[k] * ws.weights[k][0] for k in range(2)) == 0


def test_pointed_three_dim():
    res = is_strictly_convex(N_WEIGHTS)
    assert res.pointed


def test_zero_weights_are_pointed():
    assert is_strictly_convex(WeightSystem.from_rows([[0, 0]])).pointed


def test_lineality_face_matches_brute_force_membership():
    """Position k is on the lineality face iff -w_k is in the weight cone;
    the cone is pointed iff the face holds only zero weights."""
    rng = random.Random(61)
    outcomes = set()
    for _ in range(60):
        base = fuzz_weights(rng, rng.randint(1, 4), rng.randint(1, 8), rng.choice((2, 50)))
        for ws in (base, homogenize(base)):
            face = smallest_face(ws, ())
            assert face.indices == tuple(
                k for k, w in enumerate(ws.weights)
                if brute_force_cone_member(tuple(-x for x in w), ws.weights)), ws
            assert supports_face(ws, face.indices, face.witness)
            pointed = all(is_zero_vector(ws.weights[k]) for k in face.indices)
            assert is_strictly_convex(ws).pointed == pointed, ws
            outcomes.add((pointed, len(face.indices) > 0))
    assert outcomes == {(True, False), (True, True), (False, True)}

def test_edge_conditions_interior_generator():
    cond = edge_conditions(M_WEIGHTS, 0)
    assert not cond.excludes_vector
    assert cond.vector_membership.coefficients == tuple(
        __import__("fractions").Fraction(1, 2) for _ in range(2)
    )


def test_edge_conditions_true_edge():
    cond = edge_conditions(N_WEIGHTS, 0)
    assert cond.excludes_vector and cond.excludes_negation
    gamma = cond.negation_membership.functional
    assert all(dot(gamma, w) >= 0 for w in N_WEIGHTS.others(0))
    assert dot(gamma, tuple(-x for x in N_WEIGHTS.weights[0])) < 0


def test_edge_conditions_single_weight():
    cond = edge_conditions(WeightSystem.from_rows([[1]]), 0)
    assert cond.excludes_vector and cond.excludes_negation


def test_edge_conditions_index_check():
    with pytest.raises(InputError):
        edge_conditions(M_WEIGHTS, 3)


def test_minimal_faces_of_m():
    assert minimal_face(M_WEIGHTS, 0) == (0, 1, 2)
    assert minimal_face(M_WEIGHTS, 1) == (1,)
    assert minimal_face(M_WEIGHTS, 2) == (2,)


def test_minimal_face_same_ray():
    ws = WeightSystem.from_rows([[1, 0], [2, 0]])
    assert minimal_face(ws, 0) == (0, 1)
    assert minimal_face(ws, 1) == (0, 1)


def test_minimal_face_contains_self_and_respects_duplicates():
    rng = random.Random(3)
    for _ in range(20):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((2, 3, 4)))
        for i in range(ws.n):
            assert i in minimal_face(ws, i)
        for i in range(ws.n):
            for j in range(ws.n):
                if ws.weights[i] == ws.weights[j]:
                    assert minimal_face(ws, i) == minimal_face(ws, j)


def test_enumerate_faces_quadrant():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert tuple(f.indices for f in enumerate_faces(ws)) == ((), (0,), (1,), (0, 1))


def test_enumerate_faces_m():
    assert tuple(f.indices for f in enumerate_faces(M_WEIGHTS)) == ((), (1,), (2,), (0, 1, 2))


def test_enumerate_faces_line():
    ws = WeightSystem.from_rows([[1], [-1]])
    assert tuple(f.indices for f in enumerate_faces(ws)) == ((0, 1),)


def test_face_witnesses_check_out():
    for face in enumerate_faces(N_WEIGHTS):
        inside = set(face.indices)
        for k in range(N_WEIGHTS.n):
            value = dot(face.witness, N_WEIGHTS.weights[k])
            assert value == 0 if k in inside else value >= 1


def test_face_lattice_properties_random():
    rng = random.Random(5)
    for _ in range(25):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4, 5)))
        lattice = enumerate_faces(ws)
        sets = [frozenset(f.indices) for f in lattice]
        as_set = set(sets)
        # Closed under intersection, contains the improper face, and the
        # apex face appears exactly when the cone is pointed.
        for a in sets:
            for b in sets:
                assert a & b in as_set
        assert frozenset(range(ws.n)) in as_set
        apex = frozenset(
            i for i in range(ws.n) if is_zero_vector(ws.weights[i])
        )
        assert (apex in as_set) == is_strictly_convex(ws).pointed


def test_minimal_face_matches_enumeration():
    rng = random.Random(9)
    for _ in range(30):
        ws = random_weights(rng, rng.choice((1, 2, 3, 4)), rng.choice((1, 2, 3, 4, 5)))
        lattice = enumerate_faces(ws)
        for i in range(ws.n):
            expected = set(range(ws.n))
            for s in (f.indices for f in lattice):
                if i in s:
                    expected &= set(s)
            assert minimal_face(ws, i) == tuple(sorted(expected))


def test_minimal_face_witnesses_check_out():
    rng = random.Random(29)
    systems = [M_WEIGHTS, N_WEIGHTS, WeightSystem.from_rows([[1], [-1], [0]])]
    systems += [random_weights(rng, rng.choice((1, 2, 3, 4)), rng.choice((1, 3, 5, 7)))
                for _ in range(30)]
    for ws in systems:
        for i in range(ws.n):
            face = smallest_face(ws, (i,))
            assert face.indices == minimal_face(ws, i)
            inside = set(face.indices)
            for k in range(ws.n):
                value = dot(face.witness, ws.weights[k])
                assert value == 0 if k in inside else value >= 1


def test_unimodular_equivariance_of_index_sets():
    rng = random.Random(13)
    for _ in range(15):
        ws = random_weights(rng, rng.choice((2, 3)), rng.choice((2, 3, 4)))
        transformed = apply_unimodular(ws, random_unimodular(rng, ws.dim))
        assert (tuple(f.indices for f in enumerate_faces(ws))
                == tuple(f.indices for f in enumerate_faces(transformed)))
        for i in range(ws.n):
            assert minimal_face(ws, i) == minimal_face(transformed, i)


def test_face_enumeration_guard(monkeypatch):
    # The guard bounds the faces formed, not n: the unit vectors of Z^13
    # span an orthant with 2^13 faces, the 13 weights (1, k) a cone
    # with 4.
    orthant = WeightSystem.from_rows([[int(i == j) for j in range(13)] for i in range(13)])
    with pytest.raises(ResourceGuardError,
                       match=r"^face enumeration exceeds the guard of 4096 faces \(MAX_FACES\)$"):
        enumerate_faces(orthant)
    wide = WeightSystem.from_rows([[1, k] for k in range(13)])
    assert tuple(f.indices for f in enumerate_faces(wide)) == ((), (0,), (12,), tuple(range(13)))
    clear_cone_caches()
    monkeypatch.setattr(cones, "MAX_FACES", 3)
    with pytest.raises(ResourceGuardError, match=r"guard of 3 faces \(MAX_FACES\)$"):
        enumerate_faces(wide)


def test_face_witness_returns_none_for_non_face():
    # {0} is not a face index set of the quadrant spanned with (1, 1).
    assert face_witness(M_WEIGHTS, (0,)) is None


def test_homogenize():
    assert homogenize(WeightSystem.from_rows([[1, 2]])).weights == ((1, 2, 1),)
    assert homogenize(WeightSystem.from_rows([[0]])).weights == ((0, 1),)
    quartet = WeightSystem.from_rows([[1, 2], [1, 1], [3, 0], [0, 2]])
    assert homogenize(quartet).weights == (
        (1, 2, 1),
        (1, 1, 1),
        (3, 0, 1),
        (0, 2, 1),
    )


def test_homogenized_minimal_faces_of_collinear_triple():
    # The three homogenized weights (0,1), (1,1), (2,1) have pairwise
    # distinct minimal faces: two edges and the full cone.
    hom = homogenize(WeightSystem.from_rows([[0], [1], [2]]))
    assert minimal_face(hom, 0) == (0,)
    assert minimal_face(hom, 1) == (0, 1, 2)
    assert minimal_face(hom, 2) == (2,)


def _differential_systems():
    """Seeded systems with d <= 4 and n <= 7, each also homogenized:
    nonnegative (pointed) and signed draws, zero and duplicate weights,
    entries up to +-50, and rank-1 systems."""
    rng = random.Random(41)
    base = [
        WeightSystem.from_rows([[3], [1], [0], [1]]),
        WeightSystem.from_rows([[-2], [-1]]),
        WeightSystem.from_rows([[2, -4], [-1, 2], [0, 0]]),
        WeightSystem.from_rows([[1, 2, 0], [3, 6, 0], [2, 4, 0]]),
        WeightSystem.from_rows([[2], [-3], [0]]),
        WeightSystem.from_rows([[1, 0], [-1, 0], [0, 1], [1, 1]]),
        WeightSystem.from_rows([[1, 0], [0, 1], [-1, -1], [0, 0]]),
        WeightSystem.from_rows([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]]),
        WeightSystem.from_rows([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]]),
    ]
    for k in range(32):
        d, n = rng.randint(1, 4), rng.randint(1, 7)
        bound = 50 if k % 4 == 0 else 2
        low = 0 if k % 3 == 0 else -bound
        rows = []
        for _ in range(n):
            roll = rng.random()
            if rows and roll < 0.15:
                rows.append(rng.choice(rows))
            elif roll < 0.25:
                rows.append((0,) * d)
            else:
                rows.append(tuple(rng.randint(low, bound) for _ in range(d)))
        base.append(WeightSystem(d, tuple(rows)))
    return [ws for b in base for ws in (b, homogenize(b))]


def test_face_lattice_matches_brute_force_scan():
    for ws in _differential_systems():
        lattice = enumerate_faces(ws)
        reference = [indices for indices, _ in brute_force_faces(ws)]
        assert tuple(f.indices for f in lattice) == tuple(reference), ws
        for face in lattice:
            inside = set(face.indices)
            for k, w in enumerate(ws.weights):
                value = dot(face.witness, w)
                assert value == 0 if k in inside else value >= 1
        for i in range(ws.n):
            face = smallest_face(ws, (i,))
            assert face.indices == min((s for s in reference if i in s), key=len), ws
            for k, w in enumerate(ws.weights):
                value = dot(face.witness, w)
                assert value == 0 if k in face.indices else value >= 1
        full_rank = rank(ws.weights)
        for facet in facets(ws):
            values = [dot(facet.witness, w) for w in ws.weights]
            assert min(values) >= 0 and max(values) >= 1
            assert facet.indices == tuple(k for k, v in enumerate(values) if v == 0)
            on = [w for w, v in zip(ws.weights, values) if v == 0]
            assert rank(on) == full_rank - 1


def test_smallest_face_matches_brute_force_faces():
    """``smallest_face`` of a position set is the intersection of the
    brute-force faces holding it, with a witness: for no positions (the
    lineality face), each single position, random sets in any order and
    the full set, on ``fuzz_weights`` draws, affine and homogenized."""
    rng = random.Random(47)
    queries = 0
    for _ in range(40):
        base = fuzz_weights(rng, rng.randint(1, 4), rng.randint(1, 6), rng.choice((2, 50)))
        for ws in (base, homogenize(base)):
            faces = [set(indices) for indices, _ in brute_force_faces(ws)]
            position_sets = [(), tuple(range(ws.n))] + [(i,) for i in range(ws.n)]
            position_sets += [rng.sample(range(ws.n), rng.randint(2, ws.n))
                              for _ in range(3) if ws.n > 1]
            for positions in position_sets:
                expected = set(range(ws.n))
                for face in faces:
                    if face.issuperset(positions):
                        expected &= face
                assert expected in faces
                face = smallest_face(ws, positions)
                assert face.indices == tuple(sorted(expected)), (ws, positions)
                assert supports_face(ws, face.indices, face.witness)
                queries += 1
    assert queries > 500
    with pytest.raises(InputError):
        smallest_face(M_WEIGHTS, (0, 3))


@pytest.mark.parametrize("position", [1.0, True, "0", None, -1])
def test_a_position_that_is_not_an_int_in_range_is_an_input_error(position):
    """Positions become shift counts, so a float, a bool or a string is
    refused like a negative int rather than read as a position."""
    with pytest.raises(InputError):
        smallest_face(M_WEIGHTS, (0, position))
    with pytest.raises(InputError):
        M_WEIGHTS.others(position)


def test_face_work_runs_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("face work called the LP")

    monkeypatch.setattr(lp, "_phase1", refuse)
    clear_cone_caches()
    rng = random.Random(17)
    systems = [M_WEIGHTS, N_WEIGHTS]
    systems += [random_weights(rng, rng.choice((2, 3, 4)), rng.choice((4, 6, 8)))
                for _ in range(4)]
    try:
        for ws in systems:
            enumerate_faces(ws)
            for i in range(ws.n):
                minimal_face(ws, i)
                smallest_face(ws, (i,))
            strata(ws)
            oracle_sp(ws)
            oracle_wsp(ws)
            characteristic_pairs(ws)
    finally:
        clear_cone_caches()


def _fuzz_cones(seed: int, count: int):
    """``fuzz_weights`` draws with d <= 5 and n <= 10, each also
    homogenized."""
    rng = random.Random(seed)
    for _ in range(count):
        base = fuzz_weights(rng, rng.randint(1, 5), rng.randint(1, 10), rng.choice((2, 3, 50)))
        yield from (base, homogenize(base))


def test_holder_mask_adjacency_matches_the_plain_scan():
    """The double description with integer base normals and holder-mask
    adjacency returns the normals of the ``Fraction``-solve, scan-every-
    normal reference, in the same order."""
    cuts = 0
    for ws in _fuzz_cones(29, 150):
        rays, r = facet_rays(ws)
        if not r:
            continue
        assert cones._dual_extreme_rays(rays, r) == reference_dual_extreme_rays(rays, r), ws
        cuts += len(rays) - r
    assert cuts > 250


def test_primitive_vector_on_ints_matches_the_fraction_path():
    rng = random.Random(5)
    for _ in range(400):
        v = [rng.choice((0, 0, rng.randint(-30, 30), rng.randint(-10**20, 10**20)))
             for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.3:
            v = [7 * rng.randint(-3, 3) * x for x in v]
        got = primitive_vector(v)
        assert got == primitive_vector([Fraction(x) for x in v]), v
        assert all(type(x) is int for x in got)
    assert primitive_vector([0, 0, 0]) == (0, 0, 0)
    assert primitive_vector([-6, 0, 9]) == (-2, 0, 3)


def test_facet_layer_builds_no_fraction(monkeypatch):
    """On integer weights, the facets and every minimal face with its
    witness are computed without building a single ``Fraction``."""
    def refuse(*args, **kwargs):
        raise AssertionError("the facet layer built a Fraction")

    clear_cone_caches()
    monkeypatch.setattr(linalg, "Fraction", refuse)
    monkeypatch.setattr(cones, "Fraction", refuse)
    try:
        for ws in _fuzz_cones(31, 60):
            facets(ws)
            for i in range(ws.n):
                smallest_face(ws, (i,))
    finally:
        clear_cone_caches()


def test_facets_run_no_kernel_lattice(monkeypatch):
    """With the facet caches cleared and ``kernel_lattice`` refused in
    every torsep module, ``facets`` returns the same tables on the golden
    systems and 200 fuzz draws, affine and homogenized: double
    description starts from one inverse, not one kernel per base ray."""
    golden = [M_WEIGHTS, N_WEIGHTS, FIVE_WEIGHTS, QUARTET_WEIGHTS]
    systems = golden + [homogenize(ws) for ws in golden] + list(_fuzz_cones(43, 200))
    clear_cone_caches()
    expected = [facets(ws) for ws in systems]
    clear_cone_caches()

    def refuse(*args, **kwargs):
        raise AssertionError("the facet layer called kernel_lattice")

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "torsep" and hasattr(module, "kernel_lattice"):
            monkeypatch.setattr(module, "kernel_lattice", refuse)
    try:
        assert [facets(ws) for ws in systems] == expected
    finally:
        clear_cone_caches()


@pytest.mark.parametrize("d, seed, count, digest", [
    (5, 0, 249, "9ff133485920c79ced22082014efb38e99c7b04d08ee0d8ee539ff2a82b7397d"),
    (5, 1, 295, "60fe18d1bd511c5914e6c13b905403e779fc7aae86ee7ae1d8151c7ee2f4acae"),
    (6, 0, 769, "2b0a30791842a823b25142b9c9711a77cee517e8bc6e1b40b971a3a49616e76f"),
    (6, 1, 749, "3ffbc190f5d614137c7d143884ecc97d8726aac9270f8abb923566edf7eb8b86"),
])
def test_projective_facets_at_scale_are_pinned(d, seed, count, digest):
    """Projective facets of 30 weights with entries in [-3, 3]: the count
    and a digest of the sorted normals are those of the plain double
    description.  The sizes are fixed, so the work is too."""
    rng = random.Random(seed)
    ws = homogenize(WeightSystem(d, tuple(tuple(rng.randint(-3, 3) for _ in range(d))
                                          for _ in range(30))))
    normals = [facet.witness for facet in facets(ws)]
    assert len(normals) == count
    assert sha256(repr(normals).encode()).hexdigest() == digest


@pytest.mark.parametrize("seed, count, digest", [
    (0, 1980, "72b8440f7c4ce69afeaf90157dc31b7340a83ded03624f844f2fba0c963a6114"),
    (1, 1874, "1924c5d05bebdc38fcf2f59566148eca64bd6a51abd30217202cb1192a5803a9"),
])
def test_projective_face_lattice_at_scale_is_pinned(seed, count, digest):
    """Projective face lattice of 16 weights in Z^6 with entries in
    [-3, 3]: the face count and a digest of the (index set, witness)
    sequence are pinned.  The sizes are fixed, so the work is too."""
    rng = random.Random(seed)
    ws = homogenize(WeightSystem(6, tuple(tuple(rng.randint(-3, 3) for _ in range(6))
                                          for _ in range(16))))
    faces = enumerate_faces(ws)
    assert len(faces) == count
    pairs = [(face.indices, face.witness) for face in faces]
    assert sha256(repr(pairs).encode()).hexdigest() == digest


@pytest.mark.parametrize("dropped", range(4))
def test_a_dropped_facet_fails_the_euler_poincare_check(monkeypatch, dropped):
    """With any one of the square pyramid's four facets missing from the
    facet table, the closure misses a face and the alternating sum of
    the face ranks no longer vanishes."""
    ws = WeightSystem.from_rows([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])
    clear_cone_caches()
    table = facets(ws)
    assert len(table) == 4
    monkeypatch.setattr(cones, "facets", lambda _: table[:dropped] + table[dropped + 1:])
    clear_cone_caches()
    try:
        with pytest.raises(InternalError, match="Euler-Poincare"):
            enumerate_faces(ws)
    finally:
        clear_cone_caches()
