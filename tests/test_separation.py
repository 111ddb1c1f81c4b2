import importlib
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

import torsep.cones
import torsep.lp
import torsep.separation
from helpers import (
    FIVE_WEIGHTS,
    M_WEIGHTS,
    N_WEIGHTS,
    QUARTET_WEIGHTS,
    clear_cone_caches,
    fuzz_weights,
    permute_weights,
    random_weights,
    reference_affine_sp,
    reference_cone_hypothesis,
)
from torsep.cones import (
    WeightSystem,
    facets,
    homogenize,
    is_strictly_convex,
    minimal_face,
    smallest_face,
)
from torsep.linalg import dot, is_zero_vector
from torsep.errors import HypothesisError, InputError, InternalError
from torsep.separation import (
    cone_hypothesis,
    decide,
    decide_affine_sp,
    decide_affine_ssp,
    decide_affine_wsp,
    decide_projective_sp,
    decide_projective_ssp,
    decide_projective_wsp,
)
from torsep.verification import check_verdict, verify_verdict


def _verified(ws, verdict):
    assert check_verdict(ws, verdict) == []
    return verdict


def test_affine_sp_m_fails_with_pair():
    v = _verified(M_WEIGHTS, decide_affine_sp(M_WEIGHTS))
    assert not v.holds
    assert v.certificate["pair"] == (1, 0)  # x2 = 0 forces x1 = 0


def test_affine_sp_n_holds():
    v = _verified(N_WEIGHTS, decide_affine_sp(N_WEIGHTS))
    assert v.holds
    assert len(v.certificate["face_witnesses"]) == 4


def test_affine_sp_five_weight_holds():
    assert _verified(FIVE_WEIGHTS, decide_affine_sp(FIVE_WEIGHTS)).holds


def test_affine_wsp_m_holds():
    assert _verified(M_WEIGHTS, decide_affine_wsp(M_WEIGHTS)).holds


def test_affine_wsp_line_fails():
    ws = WeightSystem.from_rows([[1], [-1]])
    v = _verified(ws, decide_affine_wsp(ws))
    assert not v.holds
    assert v.certificate["kind"] == "line-in-cone"


def test_affine_wsp_zero_and_nonzero_holds():
    ws = WeightSystem.from_rows([[0], [3]])
    assert _verified(ws, decide_affine_wsp(ws)).holds


def test_affine_wsp_shared_interior_fails():
    ws = WeightSystem.from_rows([[1, 1], [2, 2], [1, 0]])
    v = _verified(ws, decide_affine_wsp(ws))
    assert not v.holds
    assert v.certificate["kind"] == "shared-face-interior"
    assert v.certificate["pair"] == (0, 1)


def test_affine_ssp_standard_basis_holds():
    ws = WeightSystem.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert _verified(ws, decide_affine_ssp(ws)).holds


def test_affine_ssp_m_fails():
    v = _verified(M_WEIGHTS, decide_affine_ssp(M_WEIGHTS))
    assert not v.holds
    assert v.certificate["pair"] == (0, 1)
    assert v.certificate["stratum_indices"] == (2,)
    assert v.certificate["stratum_witness"] == (1, 0)
    assert v.certificate["cone_functional"] is not None


def test_affine_ssp_n_fails():
    assert not _verified(N_WEIGHTS, decide_affine_ssp(N_WEIGHTS)).holds


def test_affine_ssp_refuses_non_cone():
    assert not cone_hypothesis(FIVE_WEIGHTS)[0]
    with pytest.raises(HypothesisError):
        decide_affine_ssp(FIVE_WEIGHTS)
    with pytest.raises(HypothesisError):
        decide_affine_ssp(WeightSystem.from_rows([[0], [3]]))


def test_projective_sp_quartet_holds():
    assert _verified(QUARTET_WEIGHTS, decide_projective_sp(QUARTET_WEIGHTS)).holds


def test_projective_sp_midpoint_fails():
    ws = WeightSystem.from_rows([[0], [1], [2]])
    v = _verified(ws, decide_projective_sp(ws))
    assert not v.holds


def test_projective_sp_duplicate_fails():
    ws = WeightSystem.from_rows([[0, 0], [0, 0]])
    assert not _verified(ws, decide_projective_sp(ws)).holds


def test_projective_wsp_examples():
    collinear = WeightSystem.from_rows([[0], [1], [2]])
    assert _verified(collinear, decide_projective_wsp(collinear)).holds
    dup = WeightSystem.from_rows([[0], [1], [1]])
    assert not _verified(dup, decide_projective_wsp(dup)).holds
    assert _verified(QUARTET_WEIGHTS, decide_projective_wsp(QUARTET_WEIGHTS)).holds


def test_moment_curve_certificates_hold_one_witness_per_weight():
    """On the projective moment curve (t, t^2, t^3), t = 1..40, SP and WSP
    hold, each on exactly one face witness per weight."""
    ws = WeightSystem.from_rows([[t, t ** 2, t ** 3] for t in range(1, 41)])
    sp, wsp = decide_projective_sp(ws), decide_projective_wsp(ws)
    assert (sp.kind, wsp.kind) == ("edge-separation", "face-separation")
    for verdict in (sp, wsp):
        assert _verified(ws, verdict).holds
        assert sorted(verdict.certificate) == ["face_witnesses", "kind"]
        assert len(verdict.certificate["face_witnesses"]) == 40


def test_affine_sp_reads_each_minimal_face_once():
    """A holding SP verdict reads the lineality face and each weight's
    minimal face once: on the projective moment curve (t, t^2, t^3),
    t = 1..150, 151 smallest faces are computed, as many as there are
    cache misses, although the cache keeps fewer than 150 of them."""
    ws = WeightSystem.from_rows([[t, t ** 2, t ** 3] for t in range(1, 151)])
    clear_cone_caches()
    try:
        verdict = decide(ws, "SP", "projective")
        assert verdict.kind == "edge-separation"
        assert len(verdict.certificate["face_witnesses"]) == 150
        assert torsep.cones._smallest_face_cached.cache_info().misses == 151
    finally:
        clear_cone_caches()


def test_projective_ssp_examples():
    triangle = WeightSystem.from_rows([[0, 0], [1, 0], [0, 1]])
    assert _verified(triangle, decide_projective_ssp(triangle)).holds
    collinear = WeightSystem.from_rows([[0], [1], [2]])
    assert not _verified(collinear, decide_projective_ssp(collinear)).holds
    v = _verified(QUARTET_WEIGHTS, decide_projective_ssp(QUARTET_WEIGHTS))
    assert not v.holds
    relation = v.certificate["relation"]
    assert sum(relation) == 0


@pytest.mark.parametrize("decider, ws, facet_system", [
    (decide_projective_ssp, QUARTET_WEIGHTS, homogenize(QUARTET_WEIGHTS)),  # n > d + 1
    (decide_affine_ssp, M_WEIGHTS, M_WEIGHTS),  # dependent, and a cone
])
def test_failing_ssp_takes_one_elimination(monkeypatch, decider, ws, facet_system):
    """A failing SSP takes one elimination of those counted here: the
    projective decider reads its relation off one ``kernel_lattice``, and
    the affine one its verdict off one ``independent_rows``, building no
    relation lattice.  No determinant runs.  The facets are cached first,
    so only the decider's own calls count."""
    facets(facet_system)
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "torsep":
            for name in ("kernel_lattice", "independent_rows", "determinant"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    verdict = decider(ws)
    projective = decider is decide_projective_ssp
    assert dict(calls) == {"kernel_lattice" if projective else "independent_rows": 1}
    assert not _verified(ws, verdict).holds


@pytest.mark.parametrize("seed", [0, 1])
def test_projective_ssp_reads_the_relations_of_dim_plus_one_weights(monkeypatch, seed):
    """60 weights in Z^6: projective SSP calls ``kernel_lattice`` once, on
    the first 8 homogenized weights, and its relation is zero past them."""
    rng = random.Random(seed)
    ws = WeightSystem.from_rows([[rng.randint(-3, 3) for _ in range(6)] for _ in range(60)])
    kernel_lattice, sizes = torsep.separation.kernel_lattice, []

    def recording(vectors):
        sizes.append(len(vectors))
        return kernel_lattice(vectors)

    monkeypatch.setattr(torsep.separation, "kernel_lattice", recording)
    verdict = _verified(ws, decide_projective_ssp(ws))
    assert verdict.kind == "affine-dependence" and sizes == [8]
    relation = verdict.certificate["relation"]
    assert len(relation) == 60 and any(relation[:8]) and not any(relation[8:])


def test_single_weight_is_vacuous():
    for rows in ([[0]], [[5]], [[1, -2]]):
        ws = WeightSystem.from_rows(rows)
        assert decide_affine_sp(ws).holds
        assert decide_affine_wsp(ws).holds
        assert decide_projective_sp(ws).holds
        assert decide_projective_wsp(ws).holds


def test_sp_implies_wsp_random():
    rng = random.Random(21)
    for _ in range(60):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4, 5)))
        if decide_affine_sp(ws).holds:
            assert decide_affine_wsp(ws).holds
        if decide_projective_sp(ws).holds:
            assert decide_projective_wsp(ws).holds


def test_ssp_implies_sp_on_cone_inputs():
    rng = random.Random(22)
    count = 0
    for _ in range(120):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4)))
        if not cone_hypothesis(ws)[0]:
            continue
        count += 1
        if decide_affine_ssp(ws).holds:
            assert decide_affine_sp(ws).holds
    assert count > 10


def test_permutation_equivariance():
    rng = random.Random(23)
    for _ in range(15):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((2, 3, 4)))
        perm = list(range(ws.n))
        rng.shuffle(perm)
        permuted = permute_weights(ws, perm)
        for decider in (decide_affine_sp, decide_affine_wsp):
            before = decider(ws)
            after = decider(permuted)
            assert before.holds == after.holds
            verify_verdict(permuted, after)


def test_decide_dispatcher():
    assert decide(M_WEIGHTS, "sp").holds is False
    assert decide(M_WEIGHTS, "WSP", "affine").holds is True
    assert decide(M_WEIGHTS, "SP", "projective").property_name == "SP"


@pytest.mark.parametrize("prop, mode", [("XX", "affine"), ("SP", "Affine")])
def test_decide_refuses_an_unknown_property_or_mode_as_input(prop, mode):
    with pytest.raises(InputError, match="properties are SP, WSP, SSP, modes affine, projective"):
        decide(M_WEIGHTS, prop, mode)


def _count_wsp_lps(monkeypatch, ws):
    """Run decide_affine_wsp from cold cone caches, recording the row
    count of every run of the simplex (``torsep.lp._phase1``), whatever
    entry point called it."""
    phase1 = torsep.lp._phase1
    rows = []

    def counting(matrix, rhs, ncols):
        rows.append(len(matrix))
        return phase1(matrix, rhs, ncols)

    monkeypatch.setattr(torsep.lp, "_phase1", counting)
    clear_cone_caches()
    verdict = _verified(ws, decide_affine_wsp(ws))
    return verdict, rows


def test_wsp_lp_count_bound(monkeypatch):
    ws = WeightSystem.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1], [1, 1, 1]]
    )
    verdict, rows = _count_wsp_lps(monkeypatch, ws)
    assert verdict.holds
    # Pointedness and minimal faces are read off the facets: a holding
    # WSP verdict runs no LP.
    assert rows == []


def test_failing_shared_face_wsp_runs_two_lps_of_dim_rows(monkeypatch):
    # One interior relation per pair member, each one cone membership
    # with a row per coordinate; the cones are pointed, so no LP finds a
    # line.  The first system's shared face holds only zero weights.
    systems = [WeightSystem.from_rows([[0, 0], [0, 0], [1, 0]]),
               WeightSystem.from_rows([[1, 0], [2, 0], [0, 1]]),
               WeightSystem.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 2, 0],
                                       [0, 0, 1]])]
    relations = []
    for ws in systems:
        verdict, rows = _count_wsp_lps(monkeypatch, ws)
        assert verdict.certificate["kind"] == "shared-face-interior", ws
        assert rows == [ws.dim, ws.dim], ws
        relations.append(verdict.certificate["relations"])
    assert [r["multiplier"] for r in relations[0]] == [1, 1]
    assert [r["coefficients"] for r in relations[0]] == [(0, 1, 0), (1, 0, 0)]


def _reference_systems():
    """Seeded systems with d <= 4, n <= 8, entries up to +-50, zero
    weights, duplicates, positive multiples, non-pointed and
    rank-deficient draws, each also homogenized."""
    rng = random.Random(88)
    base = [
        WeightSystem.from_rows([[0, 0], [1, 0]]),
        WeightSystem.from_rows([[1, 0], [0, 0]]),
        WeightSystem.from_rows([[1, 0], [2, 0], [0, 1]]),
        WeightSystem.from_rows([[1, 0], [-1, 0], [0, 1]]),
        WeightSystem.from_rows([[0], [0]]),
        M_WEIGHTS, N_WEIGHTS, FIVE_WEIGHTS, QUARTET_WEIGHTS,
    ]
    for k in range(110):
        bound = 50 if k % 3 == 0 else 2
        base.append(fuzz_weights(rng, rng.randint(1, 4), rng.randint(2, 8), bound))
    return [ws for b in base for ws in (b, homogenize(b))]


def test_sp_and_cone_hypothesis_match_the_lp_references():
    outcomes = set()
    for ws in _reference_systems():
        verdict = decide_affine_sp(ws)
        reference = reference_affine_sp(ws)
        assert (verdict.holds, verdict.kind) == (reference.holds, reference.kind), ws
        if verdict.holds:
            _verified(ws, verdict)
        else:
            assert verdict.certificate == reference.certificate, ws
        outcomes.add(verdict.kind)
        is_cone, functional = cone_hypothesis(ws)
        assert is_cone == reference_cone_hypothesis(ws)[0], ws
        if is_cone:
            assert all(dot(functional, w) == 1 for w in ws.weights)
    assert {"edge-separation", "zero-weight", "generator-in-cone",
            "line-in-cone"} <= outcomes


def test_cone_hypothesis_checks_the_solved_functional(monkeypatch):
    """A wrong solution of W u = 1 fails ``cone_hypothesis``'s own integer
    check: one entry off by one, or the whole functional doubled."""
    functional = cone_hypothesis(M_WEIGHTS)[1]
    assert functional == (Fraction(1, 2), Fraction(1, 2))
    for wrong in ((functional[0] + 1, functional[1]), tuple(2 * x for x in functional)):
        monkeypatch.setattr(torsep.separation, "solve_exact", lambda rows, rhs: wrong)
        with pytest.raises(InternalError, match="cone functional"):
            cone_hypothesis(M_WEIGHTS)


def _refuse_lp(monkeypatch):
    """Make the simplex (``torsep.lp._phase1``, behind every LP entry
    point) raise, from cold cone caches."""
    def refuse(*args, **kwargs):
        raise AssertionError("a holding path called the LP")

    monkeypatch.setattr(torsep.lp, "_phase1", refuse)
    clear_cone_caches()


def test_holding_sp_wsp_and_cone_hypothesis_run_no_lp(monkeypatch):
    rng = random.Random(89)
    drawn = [fuzz_weights(rng, rng.randint(1, 4), rng.randint(2, 7), rng.choice((2, 50)))
             for _ in range(60)]
    golden = [M_WEIGHTS, N_WEIGHTS, FIVE_WEIGHTS, QUARTET_WEIGHTS]
    deciders = (decide_affine_sp, decide_affine_wsp, decide_projective_sp,
                decide_projective_wsp)
    # Holding verdicts (their cones are pointed), found with the LP in place.
    holding = [(ws, decider) for ws in golden + drawn for decider in deciders
               if decider(ws).holds]
    cones = [(ws, cone_hypothesis(ws)) for ws in golden]
    assert len({decider for _, decider in holding}) == 4 and len(holding) > 60
    _refuse_lp(monkeypatch)
    try:
        for ws, decider in holding:
            verdict = _verified(ws, decider(ws))
            assert verdict.holds, (ws, decider.__name__)
        for ws, (is_cone, _) in cones:
            assert cone_hypothesis(ws)[0] == is_cone
    finally:
        clear_cone_caches()


def test_failing_sp_on_pointed_cone_runs_one_cone_member(monkeypatch):
    phase1 = torsep.lp._phase1
    calls = []

    def counting(*args):
        calls.append(1)
        return phase1(*args)

    monkeypatch.setattr(torsep.lp, "_phase1", counting)
    # (weights, pointed, simplex runs): none for a zero weight; one
    # cone_member for a weight off the lineality face; on the cone that is
    # not pointed, two at the first position of the lineality face, which
    # test w_1 and then -w_1.
    failing = [(M_WEIGHTS, True, 1), (WeightSystem.from_rows([[0, 0], [1, 0]]), True, 0),
               (WeightSystem.from_rows([[1, 0], [0, 1], [2, 0]]), True, 1),
               (WeightSystem.from_rows([[1, 0], [0, 1], [0, -1]]), False, 2)]
    for ws, pointed, count in failing:
        assert is_strictly_convex(ws).pointed == pointed
        calls.clear()
        verdict = _verified(ws, decide_affine_sp(ws))
        assert not verdict.holds and len(calls) == count, ws
    assert verdict.certificate["kind"] == "line-in-cone" and verdict.certificate["pair"][0] == 1


def test_failure_lps_run_on_the_minimal_face(monkeypatch):
    """Each failure LP has as generators exactly the nonzero weights of
    F(i) - {i} for SP failing at i (F(i) the minimal face of w_i), and of
    L - {i} for the relation of a cone that is not pointed (L the
    lineality face, i its first nonzero position)."""
    member = torsep.cones.cone_member
    generators = []

    def recording(vector, gens):
        generators.append(list(gens))
        return member(vector, gens)

    monkeypatch.setattr(torsep.cones, "cone_member", recording)
    rng = random.Random(90)
    kinds = set()
    for _ in range(80):
        base = fuzz_weights(rng, rng.randint(1, 4), rng.randint(2, 7), rng.choice((2, 50)))
        for ws in (base, homogenize(base)):
            def nonzero_off(positions, i):
                return [ws.weights[k] for k in positions
                        if k != i and not is_zero_vector(ws.weights[k])]

            generators.clear()
            verdict = _verified(ws, decide_affine_sp(ws))
            if not verdict.holds:
                kinds.add(verdict.kind)
                pair = verdict.certificate["pair"]
                i = pair[1] if verdict.kind == "generator-in-cone" else pair[0]
                runs = {"zero-weight": 0, "generator-in-cone": 1, "line-in-cone": 2}[verdict.kind]
                assert generators == [nonzero_off(minimal_face(ws, i), i)] * runs, ws
            generators.clear()
            pointed = is_strictly_convex(ws)
            if not pointed.pointed:
                kinds.add("not pointed")
                face = smallest_face(ws, ()).indices
                i = next(k for k in face if not is_zero_vector(ws.weights[k]))
                assert generators == [nonzero_off(face, i)], ws
                assert pointed.relation[i] == 1, ws
                assert all(c == 0 for k, c in enumerate(pointed.relation) if k not in face), ws
    assert kinds == {"zero-weight", "generator-in-cone", "line-in-cone", "not pointed"}


def test_decide_never_builds_the_face_lattice(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a decider built the face lattice")

    # ``torsep.strata`` is also the name of a function the package exports.
    strata_module = importlib.import_module("torsep.strata")
    for module, name in ((torsep.cones, "enumerate_faces"),
                         (strata_module, "enumerate_faces"), (strata_module, "strata")):
        monkeypatch.setattr(module, name, refuse)
    wide = WeightSystem.from_rows([[1, k] for k in range(13)])
    kinds = set()
    for ws in (M_WEIGHTS, N_WEIGHTS, FIVE_WEIGHTS, QUARTET_WEIGHTS, wide):
        for mode in ("affine", "projective"):
            for prop in ("SP", "WSP", "SSP"):
                try:
                    verdict = _verified(ws, decide(ws, prop, mode))
                except HypothesisError:
                    continue
                kinds.add(verdict.kind)
    assert "kernel-witness" in kinds
