import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import brute_force_cone_member, reference_lp_feasible, reference_phase1
from torsep import lp
from torsep.errors import InputError
from torsep.linalg import dot
from torsep.lp import cone_member, lp_feasible


def test_trivial_feasible():
    res = lp_feasible([([1], 0)], [([1], 0)])
    assert res.feasible
    assert res.solution == (Fraction(0),)


def test_simple_infeasible_certificate():
    # x >= 1 together with -x >= 0: summing both rows gives 0 >= 1.
    res = lp_feasible([], [([1], 1), ([-1], 0)])
    assert not res.feasible
    u = res.certificate
    assert u[0] == u[1] > 0  # the (1, 1) certificate up to scale


def test_explicit_convex_combination():
    eqs = [([2, 0], 1), ([0, 2], 1)]
    ineqs = [([1, 0], 0), ([0, 1], 0)]
    res = lp_feasible(eqs, ineqs)
    assert res.feasible
    assert res.solution == (Fraction(1, 2), Fraction(1, 2))


def test_no_variables():
    assert lp_feasible([([], 0)], [([], -1)], num_vars=0).feasible
    assert not lp_feasible([([], 1)], [], num_vars=0).feasible


def test_dimension_mismatch():
    with pytest.raises(InputError):
        lp_feasible([([1, 2], 0)], [([1], 0)])
    with pytest.raises(InputError, match="^generator length 1 does not match 2$"):
        cone_member((1, 0), [(1,)])


def test_results_are_deterministic():
    eqs = [([1, 2, -1], 3)]
    ineqs = [([1, 0, 0], 0), ([0, 1, 0], -2)]
    first = lp_feasible(eqs, ineqs)
    second = lp_feasible(eqs, ineqs)
    assert first == second


def test_verify_feasibility_rejects_bad_objects():
    from torsep.errors import InternalError
    from torsep.lp import FeasibilityResult

    with pytest.raises(InternalError):
        lp._check_feasibility(
            lp._coerce([([1], 1)], 1)[0], [], 1,
            FeasibilityResult(True, solution=(Fraction(0),)),
        )
    with pytest.raises(InternalError):
        lp._check_feasibility(
            [], lp._coerce([([1], 1), ([-1], 0)], 1)[0], 1,
            FeasibilityResult(False, certificate=(Fraction(1), Fraction(2))),
        )


@pytest.mark.parametrize("vector, corrupt", [
    ((1, 1), lambda inside, nums, denom: (inside, [nums[0] + 1, *nums[1:]], denom)),
    ((1, 1), lambda inside, nums, denom: (inside, nums, denom + 1)),
    ((1, 1), lambda inside, nums, denom: (inside, [-x for x in nums], denom)),
    ((-1, 1), lambda inside, nums, denom: (inside, [-x for x in nums], denom)),
    ((-1, 1), lambda inside, nums, denom: (inside, [0] * len(nums), denom)),
])
def test_cone_member_checks_the_simplex_answer(monkeypatch, vector, corrupt):
    """A simplex answer with a coefficient numerator off by one, the
    wrong denominator or negated coefficients (the vector is inside), or
    a negated or zero Farkas vector (it is outside), fails
    ``cone_member``'s own integer check."""
    from torsep.errors import InternalError

    phase1 = lp._phase1
    monkeypatch.setattr(lp, "_phase1", lambda *args: corrupt(*phase1(*args)))
    with pytest.raises(InternalError, match="arithmetic check"):
        cone_member(vector, [(2, 0), (0, 2), (1, 1)])


def test_cone_member_inside():
    res = cone_member((1, 1), [(2, 0), (0, 2)])
    assert res.inside
    assert res.coefficients == (Fraction(1, 2), Fraction(1, 2))


def test_cone_member_outside_with_functional():
    v = (1, 0, 0)
    gens = [(0, 0, 1), (1, 1, 0), (0, 1, 1)]
    assert not brute_force_cone_member(v, gens)
    res = cone_member(v, gens)
    assert not res.inside
    gamma = res.functional
    assert all(dot(gamma, g) >= 0 for g in gens)
    assert dot(gamma, v) < 0


def test_cone_member_zero_vector():
    res = cone_member((0, 0), [(1, 2), (-3, 4)])
    assert res.inside
    assert all(c == 0 for c in res.coefficients)


def test_cone_member_empty_generators():
    inside = cone_member((0, 0), [])
    assert inside.inside
    outside = cone_member((2, -1), [])
    assert not outside.inside
    assert dot(outside.functional, (2, -1)) < 0


def test_cone_member_agrees_with_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        d = rng.choice((1, 2, 3))
        k = rng.randrange(0, 5)
        gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        v = tuple(rng.randint(-2, 2) for _ in range(d))
        res = cone_member(v, gens)
        assert res.inside == brute_force_cone_member(v, gens)
        if res.inside:
            combo = tuple(
                sum(c * g[r] for c, g in zip(res.coefficients, gens))
                for r in range(d)
            )
            assert combo == tuple(Fraction(x) for x in v)
            assert all(c >= 0 for c in res.coefficients)
        else:
            assert all(dot(res.functional, g) >= 0 for g in gens)
            assert dot(res.functional, v) < 0


def _solve_and_check(eqs, ineqs, num_vars=None):
    """Solve twice, require identical answers and a passing re-check."""
    first = lp_feasible(eqs, ineqs, num_vars=num_vars)
    assert lp_feasible(eqs, ineqs, num_vars=num_vars) == first
    n = num_vars if num_vars is not None else len((eqs + ineqs)[0][0])
    lp._check_feasibility(lp._coerce(eqs, n)[0], lp._coerce(ineqs, n)[0], n, first)
    return first


def test_no_constraints():
    res = _solve_and_check([], [], num_vars=3)
    assert res.feasible and len(res.solution) == 3
    assert lp_feasible([], []).feasible


def test_no_variables_edge_cases():
    assert _solve_and_check([], [], num_vars=0).feasible
    assert _solve_and_check([([], 0)], [([], 0)], num_vars=0).feasible
    res = _solve_and_check([], [([], 1)], num_vars=0)
    assert not res.feasible and res.certificate[0] > 0
    res = _solve_and_check([([], -2)], [], num_vars=0)
    assert not res.feasible


def test_equality_only_systems():
    res = _solve_and_check([([1, 1], 2), ([1, -1], 0)], [])
    assert res.solution == (1, 1)
    res = _solve_and_check([([1, 1], 1), ([2, 2], 3)], [])
    assert not res.feasible
    # Underdetermined: any solution will do, but it must check out.
    assert _solve_and_check([([1, 2, 3], -4)], []).feasible


def test_zero_rows():
    assert _solve_and_check([([0, 0], 0)], [([0, 0], -1), ([1, 0], 1)]).feasible
    assert not _solve_and_check([([0, 0], 1)], [([1, 0], 1)]).feasible
    assert not _solve_and_check([], [([0, 0], 1)]).feasible


def test_duplicate_rows():
    row = ([1, -2, 1], 3)
    assert _solve_and_check([row, row], [row, row]).feasible
    res = _solve_and_check([], [([1, 1], 1), ([1, 1], 1), ([-1, -1], 0), ([-1, -1], 0)])
    assert not res.feasible


def test_right_hand_sides_of_both_signs():
    eqs = [([1, 0, 1], -3), ([0, 1, -1], 2)]
    ineqs = [([1, 0, 0], -5), ([0, -1, 0], -4), ([0, 0, 1], 1)]
    assert _solve_and_check(eqs, ineqs).feasible
    ineqs = [([1, 0, 0], -5), ([0, -1, 0], -4), ([0, 0, -1], 2), ([0, 1, 0], -1)]
    # x3 lies in [-3, -2], so x1 = -3 - x3 lies in [-1, 0]: x1 >= 1 fails.
    assert _solve_and_check(eqs, ineqs).feasible
    assert not _solve_and_check(eqs, ineqs + [([1, 0, 0], 1)]).feasible


def test_random_systems_check_out():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randrange(0, 4)
        eqs = [([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
               for _ in range(rng.randrange(0, 3))]
        ineqs = [([rng.randint(-2, 2) for _ in range(n)], rng.randint(-2, 2))
                 for _ in range(rng.randrange(0, 5))]
        _solve_and_check(eqs, ineqs, num_vars=n)


def test_cone_member_without_generators_or_target():
    rng = random.Random(23)
    for d in (1, 2, 3):
        zero = (0,) * d
        for k in range(4):
            gens = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
            res = cone_member(zero, gens)
            assert res.inside == brute_force_cone_member(zero, gens)
            assert res.coefficients == (0,) * k
        for _ in range(5):
            v = tuple(rng.randint(-2, 2) for _ in range(d))
            res = cone_member(v, [])
            assert res.inside == brute_force_cone_member(v, [])
            if not res.inside:
                assert dot(res.functional, v) < 0


def _reference_systems():
    """Seeded systems for the integer simplex against the ``Fraction``
    reference: integer and rational entries, zero and duplicate rows,
    equality-only systems, no variables, right-hand sides of both signs,
    and small entries with many zero right-hand sides, so that the ratio
    test meets ties."""
    rng = random.Random(41)

    def entry(rational, bound):
        x = rng.randint(-bound, bound)
        return Fraction(x, rng.randint(2, 6)) if rational and rng.random() < 0.4 else x

    def rows(count, n, rational, bound):
        out = []
        for _ in range(count):
            roll = rng.random()
            if out and roll < 0.15:
                out.append(rng.choice(out))
            elif roll < 0.25:
                out.append(([0] * n, entry(rational, bound)))
            else:
                rhs = 0 if roll < 0.5 else entry(rational, bound)
                out.append(([entry(rational, bound) for _ in range(n)], rhs))
        return out

    systems = []
    for k in range(600):
        rational = k % 3 == 0
        bound = 1 if k % 2 else 3
        n = rng.randrange(0, 5)
        eqs = rows(rng.randrange(0, 3), n, rational, bound)
        ineqs = [] if k % 5 == 0 else rows(rng.randrange(0, 6), n, rational, bound)
        systems.append((eqs, ineqs, n))
    return systems


def _as_fractions(result):
    """A ``_phase1`` answer (flag, integer numerators, denominator D > 0)
    as the reference's (flag, Fraction vector)."""
    flag, nums, denom = result
    assert type(denom) is int and denom > 0 and all(type(x) is int for x in nums)
    return flag, [Fraction(x, denom) for x in nums]


def _reference_over_one_denominator(matrix, rhs, ncols):
    """``reference_phase1`` in ``_phase1``'s return shape: its Fractions
    as numerators over the lcm of their denominators."""
    flag, vec = reference_phase1(matrix, rhs, ncols)
    denom = lcm(*(x.denominator for x in vec))
    return flag, [x.numerator * (denom // x.denominator) for x in vec], denom


def _with_reference_phase1(monkeypatch, call, *args):
    with monkeypatch.context() as patch:
        patch.setattr(lp, "_phase1", _reference_over_one_denominator)
        return call(*args)


def test_integer_simplex_matches_the_fraction_reference(monkeypatch):
    """Same pivots as the rational tableau, so the same answers, field
    by field: ``lp_feasible``, ``cone_member`` and the phase-1 vectors
    themselves (a uniform rescaling of the multipliers would not show in
    the first two, whose answers are scale-invariant)."""
    for eqs, ineqs, n in _reference_systems():
        matrix = [coeffs for coeffs, _ in eqs + ineqs]
        rhs = [b for _, b in eqs + ineqs]
        columns = [list(col) for col in zip(*matrix)] if n else []
        assert _as_fractions(lp._phase1(matrix, rhs, n)) == reference_phase1(matrix, rhs, n)
        assert _as_fractions(lp._phase1(columns, [1] * n, len(matrix))) == reference_phase1(
            columns, [1] * n, len(matrix))
        expected = _with_reference_phase1(monkeypatch, lp_feasible, eqs, ineqs, n)
        assert lp_feasible(eqs, ineqs, num_vars=n) == expected
        if n and matrix:
            for v in (rhs[:n] + [0] * (n - len(rhs)), [0] * n):
                gens = [tuple(row) for row in matrix]
                expected = _with_reference_phase1(monkeypatch, cone_member, v, gens)
                assert cone_member(v, gens) == expected


def test_lp_feasible_matches_the_farkas_matrix_reference():
    """``lp_feasible`` as one ``cone_member`` gives the solutions and
    certificates that the Farkas alternative's matrix, handed to the
    simplex directly, gives: 3,000 seeded rational systems with up to 5
    variables, 3 equalities and 6 inequalities."""
    rng = random.Random(15)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))

    outcomes = set()
    for _ in range(3000):
        n = rng.randint(0, 5)
        eqs = [([entry() for _ in range(n)], entry()) for _ in range(rng.randint(0, 3))]
        ineqs = [([entry() for _ in range(n)], entry()) for _ in range(rng.randint(0, 6))]
        res = lp_feasible(eqs, ineqs, num_vars=n)
        assert res == reference_lp_feasible(eqs, ineqs, n), (eqs, ineqs)
        outcomes.add(res.feasible)
    assert outcomes == {True, False}
