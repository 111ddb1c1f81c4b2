import random
from fractions import Fraction
from itertools import combinations, count

import pytest

from helpers import (
    FIVE_WEIGHTS,
    M_WEIGHTS,
    N_WEIGHTS,
    QUARTET_WEIGHTS,
    brute_force_graver,
    fuzz_weights,
    random_weights,
    reference_graver,
    reference_vanishing_failures,
)
from torsep import ideals
from torsep.cones import WeightSystem, homogenize
from torsep.errors import InputError, InternalError, ResourceGuardError
from torsep.ideals import (
    Binomial,
    binomial_generators,
    octant_semigroup_generators,
    sp_violation_scan,
    verify_vanishing,
)
from torsep.linalg import combine, kernel_lattice, lattice_equal


def test_binomial_canonical_sign():
    b = Binomial.from_vector((-2, 1, 1))
    assert b.a == (2, 0, 0)
    assert b.b == (0, 1, 1)
    assert b == Binomial.from_vector((2, -1, -1))
    assert b.to_string() == "x1^2 - x2*x3"


def test_binomial_validation():
    with pytest.raises(InputError):
        Binomial((1, 0), (1, 0))
    with pytest.raises(InputError):
        Binomial((1, -1), (0, 0))
    with pytest.raises(InputError):
        Binomial.from_vector((0, 0))


def test_octant_single_ray():
    gens = octant_semigroup_generators([(2, -1, -1)], (0,), 3)
    assert gens == ((2, -1, -1),)


def test_octant_empty_lattice():
    assert octant_semigroup_generators([], (0, 1), 3) == ()


def test_octant_opposite_pattern_is_empty():
    assert octant_semigroup_generators([(2, -1, -1)], (0, 1, 2), 3) == ()


def test_octant_five_weight_contains_printed_relation():
    lattice = kernel_lattice(FIVE_WEIGHTS.weights)
    gens = octant_semigroup_generators(lattice, (0, 1, 2), 5)
    assert (0, 1, 1, -1, -1) in gens


def test_generators_for_m():
    bins = binomial_generators(M_WEIGHTS)
    assert Binomial((2, 0, 0), (0, 1, 1)) in bins


def test_generators_trivial_ideal():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert binomial_generators(ws) == ()


def test_generators_five_weight_system():
    bins = binomial_generators(FIVE_WEIGHTS)
    vectors = {b.vector for b in bins}
    # The three printed defining equations all appear.
    assert (3, -1, 1, 0, -2) in vectors
    assert (3, -2, 0, 1, -1) in vectors
    assert (0, 1, 1, -1, -1) in vectors
    assert lattice_equal([b.vector for b in bins], kernel_lattice(FIVE_WEIGHTS.weights))


def test_generators_are_canonical():
    first = binomial_generators(M_WEIGHTS)
    second = binomial_generators(M_WEIGHTS)
    assert first == second
    assert list(first) == sorted(first, key=lambda b: (b.a, b.b))


def test_scan_power_form():
    result = sp_violation_scan([Binomial((2, 0, 0), (0, 1, 1))])
    assert result.violating and result.form == 2


def test_scan_monomial_equals_one():
    result = sp_violation_scan([Binomial((1, 1), (0, 0))])
    assert result.violating and result.form == 1


def test_scan_five_weight_compatible():
    assert not sp_violation_scan(binomial_generators(FIVE_WEIGHTS)).violating


def test_vanishing_direct_rational_check():
    # Over the rationals: t = (2, 3) maps to the point (6, 4, 9) and the
    # binomial x1^2 - x2*x3 evaluates to 36 - 36 = 0.
    t = (2, 3)
    point = [
        Fraction(t[0]) ** w[0] * Fraction(t[1]) ** w[1] for w in M_WEIGHTS.weights
    ]
    assert point == [6, 4, 9]
    assert point[0] ** 2 - point[1] * point[2] == 0


def test_vanishing_modular_trials():
    bins = binomial_generators(FIVE_WEIGHTS)
    report = verify_vanishing(bins, FIVE_WEIGHTS, trials=100, prime=10007, seed=5)
    assert report.passed
    assert report.trials == 100


def test_vanishing_empty_list_passes():
    report = verify_vanishing([], M_WEIGHTS, trials=3, prime=10007)
    assert report.passed


def test_vanishing_rejects_bad_parameters():
    with pytest.raises(InputError):
        verify_vanishing([], M_WEIGHTS, trials=0, prime=10007)
    with pytest.raises(InputError):
        verify_vanishing([], M_WEIGHTS, trials=1, prime=10006)
    with pytest.raises(InputError):
        verify_vanishing([], M_WEIGHTS, trials=1, prime=2)


def test_vanishing_with_no_binomials_draws_no_points(monkeypatch):
    """With nothing to check the report is returned at once, after the
    parameters are checked: a bad trial count or prime still raises."""
    for trials, prime in ((0, 10007), (1, 10006), (1, 2**31 + 11)):
        with pytest.raises(InputError):
            verify_vanishing((), M_WEIGHTS, trials=trials, prime=prime)
    monkeypatch.setattr(ideals.random, "Random", None)  # a draw would raise
    assert verify_vanishing((), M_WEIGHTS, trials=20, prime=10007, seed=3) == (10007, 20, 3, ())


def test_vanishing_prime_is_bounded():
    """Primality is checked by trial division, so the prime is capped at
    2^31 - 1; the smallest prime above the cap is refused."""
    assert verify_vanishing([], M_WEIGHTS, trials=1, prime=2**31 - 1).passed
    with pytest.raises(InputError, match=r"exceeds the bound 2\^31 - 1"):
        verify_vanishing([], M_WEIGHTS, trials=1, prime=2**31 + 11)


def test_vanishing_detects_wrong_binomial():
    bad = Binomial((1, 0, 0), (0, 1, 0))  # x1 - x2 does not vanish on M's closure
    report = verify_vanishing([bad], M_WEIGHTS, trials=20, prime=10007, seed=1)
    assert not report.passed


def test_vanishing_matches_the_power_by_power_reference():
    """The sampler gives the failures, in order and value, of evaluating
    every power afresh (``helpers.reference_vanishing_failures``):
    Graver sets, which vanish, and seeded random binomials, most of which
    do not, on fuzz systems with negative and zero weights."""
    rng = random.Random(97)
    failing = 0
    for k in range(60):
        ws = fuzz_weights(rng, rng.randint(1, 3), rng.randint(1, 5), rng.choice((2, 9)))
        bins = list(binomial_generators(ws))
        for _ in range(rng.randint(0, 4)):
            c = [rng.randint(-3, 3) for _ in range(ws.n)]
            if any(c):
                bins.append(Binomial.from_vector(c))
        prime = rng.choice((3, 5, 10007))
        report = verify_vanishing(bins, ws, trials=5, prime=prime, seed=k)
        assert report == (prime, 5, k, reference_vanishing_failures(bins, ws, 5, prime, k))
        failing += not report.passed
    assert failing > 10


def test_vanishing_skips_only_binomials_that_cannot_fail():
    """Binomials whose relation (a - b)W is 0 mod p - 1 are not evaluated,
    and the report is still that of evaluating every binomial: 500 seeded
    fuzz systems, each Graver set with random binomials mixed in and
    shuffled, at the primes 3, 5 and 7 (where many non-relations are 0
    mod p - 1) and 10007, with varied trials and seeds."""
    rng = random.Random(36)
    skipped = failing = 0
    for _ in range(500):
        ws = fuzz_weights(rng, rng.randint(1, 3), rng.randint(1, 5), rng.choice((2, 5)))
        bins = list(binomial_generators(ws))
        for _ in range(rng.randint(0, 5)):
            c = [rng.randint(-4, 4) for _ in range(ws.n)]
            if any(c):
                bins.append(Binomial.from_vector(c))
        rng.shuffle(bins)
        prime, trials, seed = rng.choice((3, 5, 7, 10007)), rng.randint(1, 6), rng.randrange(999)
        report = verify_vanishing(bins, ws, trials=trials, prime=prime, seed=seed)
        assert report == (prime, trials, seed,
                          reference_vanishing_failures(bins, ws, trials, prime, seed))
        relations = [combine(ws.weights, b.vector) for b in bins]
        skipped += sum(any(r) and not any(x % (prime - 1) for x in r) for r in relations)
        failing += not report.passed
    assert skipped > 100 and failing > 200


def test_vanishing_of_weight_relations_draws_no_points(monkeypatch):
    """The binomials of ``binomial_generators`` are weight relations, so
    none can fail and no point is drawn, however many trials are asked
    for: on the golden systems and 50 fuzz draws, in both modes."""
    rng = random.Random(37)
    systems = [M_WEIGHTS, N_WEIGHTS, FIVE_WEIGHTS, QUARTET_WEIGHTS,
               *(fuzz_weights(rng, rng.randint(1, 3), rng.randint(1, 6), rng.choice((2, 9)))
                 for _ in range(50))]
    monkeypatch.setattr(ideals.random, "Random", None)  # a draw would raise
    for ws in systems:
        for target in (ws, homogenize(ws)):
            bins = binomial_generators(target)
            for prime in (3, 10007):
                assert verify_vanishing(bins, target, trials=10**9, prime=prime,
                                        seed=5) == (prime, 10**9, 5, ())


def test_vanishing_refuses_a_binomial_of_the_wrong_length():
    """A binomial with more (or fewer) exponents than weights is an
    input error, not a check of its prefix."""
    with pytest.raises(InputError, match="length is not the number of weights, 2"):
        verify_vanishing([Binomial((1, 0, 5), (0, 1, 0))], WeightSystem(1, [(1,), (1,)]),
                         trials=3, prime=10007)
    with pytest.raises(InputError, match="length is not the number of weights, 3"):
        verify_vanishing([Binomial((1, 0), (0, 1))], M_WEIGHTS, trials=3, prime=10007)


def test_vanishing_refuses_an_odd_composite():
    """Trial division runs up to the square root inclusive: an odd
    composite, even the square of a prime, is refused."""
    for prime in (10005, 9, 10007**2):
        with pytest.raises(InputError, match="not an odd prime"):
            verify_vanishing([], M_WEIGHTS, trials=1, prime=prime)


def test_generator_vectors_span_lattice_random():
    rng = random.Random(41)
    for _ in range(25):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4)))
        bins = binomial_generators(ws)
        lattice = kernel_lattice(ws.weights)
        if lattice:
            assert lattice_equal([b.vector for b in bins], lattice)
            report = verify_vanishing(bins, ws, trials=10, prime=10007, seed=2)
            assert report.passed
        else:
            assert bins == ()


SQUARE_PYRAMID = WeightSystem.from_rows([[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]])


@pytest.mark.parametrize("extra, message", [
    (((1, -1, 1, -1), (1, 0, 0, 0)), "emitted binomial is not a weight relation"),
    (((2, -2, 2, -2),), "binomial relation vectors do not span the lattice"),
], ids=["not-a-relation", "sublattice"])
def test_generators_check_the_completion_exactly(monkeypatch, extra, message):
    """The square pyramid's relation lattice is spanned by (1, -1, 1, -1).
    A completion that adds (1, 0, 0, 0), which is no relation, or that
    returns the doubled row, which spans a sublattice, is refused."""
    assert kernel_lattice(SQUARE_PYRAMID.weights) == ((1, -1, 1, -1),)
    monkeypatch.setattr(ideals, "_graver_basis", lambda lattice: extra)
    with pytest.raises(InternalError, match=f"^{message}$"):
        binomial_generators(SQUARE_PYRAMID)


def test_generators_five_weight_system_is_exact_graver_basis():
    vectors = {b.vector for b in binomial_generators(FIVE_WEIGHTS)}
    assert vectors == {
        (0, 1, 1, -1, -1),
        (3, -3, -1, 2, 0),
        (3, -2, 0, 1, -1),
        (3, -1, 1, 0, -2),
        (3, 0, 2, -1, -3),
    }


def test_generators_for_m_is_exact_graver_basis():
    assert [b.vector for b in binomial_generators(M_WEIGHTS)] == [(2, -1, -1)]


def test_generators_pair_budget_is_enforced(monkeypatch):
    monkeypatch.setattr(ideals, "MAX_NODES", 3)
    with pytest.raises(ResourceGuardError, match="critical pairs"):
        binomial_generators(FIVE_WEIGHTS)


def test_generators_weight_guard_runs_before_the_lattice(monkeypatch):
    """More weights than ``MAX_WEIGHTS`` is refused before the relation
    lattice is formed: a ``kernel_lattice`` that raises is never reached."""
    def unreachable(vectors):
        raise AssertionError("kernel_lattice ran past the weight guard")

    monkeypatch.setattr(ideals, "kernel_lattice", unreachable)
    monkeypatch.setattr(ideals, "MAX_WEIGHTS", FIVE_WEIGHTS.n - 1)
    with pytest.raises(ResourceGuardError, match=r"^Graver basis completion over 5 weights "
                       r"exceeds the guard of 4 weights \(MAX_WEIGHTS\)$"):
        binomial_generators(FIVE_WEIGHTS)


def test_generators_pair_budget_sums_over_lifts(monkeypatch):
    """FIVE_WEIGHTS forms 4 critical pairs in all, over its base step
    and three lifts, and no step forms 4 alone: a budget of 4 passes and
    one of 3 trips the guard."""
    expected = binomial_generators(FIVE_WEIGHTS)
    monkeypatch.setattr(ideals, "MAX_NODES", 3)
    with pytest.raises(ResourceGuardError, match="critical pairs"):
        binomial_generators(FIVE_WEIGHTS)
    monkeypatch.setattr(ideals, "MAX_NODES", 4)
    assert binomial_generators(FIVE_WEIGHTS) == expected
    complete, per_step = ideals._complete, []

    def counted(generators, active, lifted, formed):
        mine = count(1)
        result = complete(generators, active, lifted, mine)
        per_step.append(next(mine) - 1)
        return result

    monkeypatch.setattr(ideals, "_complete", counted)
    assert binomial_generators(FIVE_WEIGHTS) == expected
    assert sum(per_step) == 4 and max(per_step) < 4 and len(per_step) == 4


def test_lift_without_a_pair_returns_its_generators(monkeypatch):
    """Rows (1, 0, -2, 1) and (0, 1, 0, 0): the pivots share no sign and
    each later coordinate has one nonzero row, so every step hands its
    generators back as given and forms no pair."""
    complete, steps = ideals._complete, []

    def recorded(generators, active, lifted, formed):
        mine = count(1)
        result = complete(generators, active, lifted, mine)
        steps.append((result is generators, next(mine) - 1))
        return result

    monkeypatch.setattr(ideals, "_complete", recorded)
    lattice = kernel_lattice(((2, 2), (0, 0), (0, 1), (-2, 0)))
    assert ideals._graver_basis(lattice) == reference_graver(lattice)
    assert steps == [(True, 0)] * 3


def test_graver_matches_reference_completion():
    """Project-and-lift and the whole-lattice completion give the same
    basis on seeded draws with d <= 4, n <= 7 and entries in [-2, 2]
    (zero, duplicate and parallel weights, rank-deficient systems), on
    rank-0 and single-weight systems, and on one d = 4, n = 7 system."""
    rng = random.Random(1913)
    systems = [WeightSystem(2, ((0, 0),) * 3), WeightSystem(1, ((0,),)),
               WeightSystem(3, ((1, -2, 0),)),
               # Its last lift admits elements that a later, smaller one lies
               # below, so the final ⊑-filter of each step is needed.
               WeightSystem.from_rows([[-2, 3, 0, 1], [-2, -1, -3, -1], [0, -2, 1, 1],
                                       [3, -2, 3, 2], [1, -3, -3, -1], [1, -1, 2, 2],
                                       [2, -1, -3, -1]])]
    for _ in range(400):
        systems.append(fuzz_weights(rng, rng.randint(1, 4), rng.randint(1, 7), 2))
    for ws in systems:
        lattice = kernel_lattice(ws.weights)
        assert ideals._graver_basis(lattice) == reference_graver(lattice), ws


@pytest.mark.parametrize("n, seed, size", [
    (7, 5, 315), (7, 8, 51), (7, 9, 101), (7, 10, 430), (8, 9, 365)])
def test_graver_pinned_scale_points(monkeypatch, n, seed, size):
    """Graver basis sizes of d = 3 draws with entries in [-2, 2], and the
    critical pairs the completion forms for them over all its steps (read
    off the counter that every step shares, passed last)."""
    complete, counters = ideals._complete, []

    def counted(*args):
        counters.append(args[-1])
        return complete(*args)

    monkeypatch.setattr(ideals, "_complete", counted)
    ws = random_weights(random.Random(seed), 3, n)
    assert len(binomial_generators(ws)) == size
    assert len(set(map(id, counters))) == 1
    pairs = {(7, 5): 2_293, (7, 8): 163, (7, 9): 798, (7, 10): 4_313, (8, 9): 12_153}
    assert next(counters[0]) - 1 == pairs[n, seed]


def _differential_systems():
    """Seeded random systems, d up to 4, some with zero and duplicate weights."""
    rng = random.Random(2024)
    systems = []
    for k in range(48):
        d, n = rng.choice((1, 2, 3, 4)), rng.choice((2, 3, 4, 5))
        weights = list(random_weights(rng, d, n).weights)
        if k % 3 == 1:
            weights[rng.randrange(n)] = (0,) * d
        if k % 3 == 2:
            weights[rng.randrange(n)] = weights[rng.randrange(n)]
        systems.append(WeightSystem(d, tuple(weights)))
    return systems


def test_generators_match_brute_force_graver_basis():
    bound = 3
    inside_all = 0
    for ws in _differential_systems():
        graver = sorted(b.vector for b in binomial_generators(ws))
        inside = [g for g in graver if max(map(abs, g)) <= bound]
        assert inside == brute_force_graver(ws.weights, bound), ws
        inside_all += inside == graver
    # For most systems the box holds the whole basis, so the check above
    # is an exact equality there.
    assert inside_all >= 40


def test_octant_generators_are_the_octant_slice_of_the_graver_basis():
    for ws in _differential_systems()[:24]:
        lattice = kernel_lattice(ws.weights)
        graver = [b.vector for b in binomial_generators(ws)]
        signed = graver + [tuple(-x for x in g) for g in graver]
        for size in range(ws.n + 1):
            for positives in combinations(range(ws.n), size):
                expected = sorted(
                    v for v in signed
                    if all((x >= 0) if i in positives else (x <= 0)
                           for i, x in enumerate(v))
                )
                assert list(octant_semigroup_generators(
                    lattice, positives, ws.n)) == expected, (ws, positives)


def test_octant_generators_from_a_non_minimal_spanning_set():
    # (1, 1) and (1, 2) span Z^2, whose Graver basis is the unit vectors.
    assert octant_semigroup_generators([(1, 1), (1, 2)], (0, 1), 2) == ((0, 1), (1, 0))
    assert octant_semigroup_generators([(1, 1), (1, 2)], (0,), 2) == ((0, -1), (1, 0))
