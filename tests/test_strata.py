import importlib
import random

from helpers import (
    M_WEIGHTS,
    N_WEIGHTS,
    fuzz_oracle_verdicts,
    fuzz_weights,
    golden_verdicts,
    random_weights,
    reference_characteristic_pairs,
)
from torsep import verification
from torsep.cones import WeightSystem, homogenize, smallest_face
from torsep.linalg import rank
from torsep.strata import (
    characteristic_pairs,
    oracle_sp,
    oracle_wsp,
    ssp_coordinate_witness,
    strata,
)
from torsep.verdict import Verdict
from torsep.verification import check_verdict


def test_strata_of_m():
    pieces = strata(M_WEIGHTS)
    assert [(s.indices, s.dim) for s in pieces] == [
        ((), 0),
        ((1,), 1),
        ((2,), 1),
        ((0, 1, 2), 2),
    ]


def test_strata_of_plane():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert [s.indices for s in strata(ws)] == [(), (0,), (1,), (0, 1)]


def test_strata_of_line_pair():
    ws = WeightSystem.from_rows([[1], [-1]])
    pieces = strata(ws)
    assert len(pieces) == 1
    assert pieces[0].indices == (0, 1)
    assert pieces[0].dim == 1


def test_oracle_sp_m_fails_on_pair():
    v = oracle_sp(M_WEIGHTS)
    assert not v.holds
    assert v.certificate["pair"] == (1, 0)
    assert check_verdict(M_WEIGHTS, v) == []


def test_oracle_sp_n_holds():
    v = oracle_sp(N_WEIGHTS)
    assert v.holds
    assert check_verdict(N_WEIGHTS, v) == []


def test_oracle_sp_never_vanishing_coordinate():
    ws = WeightSystem.from_rows([[1], [-1]])
    v = oracle_sp(ws)
    assert not v.holds
    assert v.certificate["kind"] == "strata-missed-hyperplane"
    assert v.certificate["pair"] == (0, 1)


def test_oracle_wsp_examples():
    assert oracle_wsp(M_WEIGHTS).holds
    bad = WeightSystem.from_rows([[1], [-1], [2]])
    v = oracle_wsp(bad)
    assert not v.holds
    assert check_verdict(bad, v) == []
    ok = WeightSystem.from_rows([[0], [3]])
    assert oracle_wsp(ok).holds


def test_holding_oracle_certificates_list_each_weights_smallest_face():
    """Each holding oracle certificate, on the golden systems and the fuzz
    draws, lists n strata and nothing else: entry k is the smallest face
    of weight k (of the homogenized weights in projective mode)."""
    kinds = set()
    for ws, verdict in [*golden_verdicts(), *fuzz_oracle_verdicts(71, 60)]:
        if verdict.kind in ("strata-separation", "strata-distinguished"):
            target = homogenize(ws) if verdict.mode == "projective" else ws
            assert sorted(verdict.certificate) == ["kind", "strata"]
            assert verdict.certificate["strata"] == tuple(
                smallest_face(target, (k,)).indices for k in range(target.n))
            kinds.add(verdict.kind)
    assert kinds == {"strata-separation", "strata-distinguished"}


def test_oracle_certificates_take_one_smallest_face_per_weight(monkeypatch):
    """On the projective moment curve (t, t^2, t^3), t = 1..150, both
    oracle verdicts hold on one stratum per weight, and re-verifying each
    takes at most n smallest-face queries, not one per pair."""
    ws = WeightSystem.from_rows([[t, t ** 2, t ** 3] for t in range(1, 151)])
    queries = []

    def counting(*args):
        queries.append(args)
        return smallest_face(*args)

    monkeypatch.setattr(verification, "smallest_face", counting)
    for oracle, kind in ((oracle_sp, "strata-separation"), (oracle_wsp, "strata-distinguished")):
        v = oracle(homogenize(ws))
        assert v.kind == kind and len(v.certificate["strata"]) == ws.n
        queries.clear()
        assert check_verdict(ws, Verdict(v.property_name, "projective", True, v.certificate)) == []
        assert len(queries) <= ws.n


def test_characteristic_pairs_plane():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert characteristic_pairs(ws) == ((0, 0), (1, 1))


def test_characteristic_pairs_m():
    assert characteristic_pairs(M_WEIGHTS) == (
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 0),
        (2, 2),
    )


def test_characteristic_pairs_all_when_single_stratum():
    ws = WeightSystem.from_rows([[1], [-1]])
    assert characteristic_pairs(ws) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_ssp_witness_m():
    w = ssp_coordinate_witness(M_WEIGHTS)
    assert w.pair == (0, 1)
    assert w.stratum.indices == (2,)
    assert w.stratum.witness == (1, 0)
    assert w.ambient_rank == 2


def test_ssp_witness_none_for_full_space():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert ssp_coordinate_witness(ws) is None


def test_ssp_witness_n():
    w = ssp_coordinate_witness(N_WEIGHTS)
    assert w is not None
    assert w.ambient_rank == 3


def test_stratum_dimension_monotone():
    rng = random.Random(31)
    for _ in range(20):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4, 5)))
        pieces = strata(ws)
        for a in pieces:
            assert a.dim <= rank(ws.weights)
            for b in pieces:
                if set(a.indices) <= set(b.indices):
                    assert a.dim <= b.dim


def test_characteristic_pairs_diagonal_iff_oracle_sp():
    rng = random.Random(32)
    for _ in range(25):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((2, 3, 4)))
        sets = [set(s.indices) for s in strata(ws)]
        if any(all(i in s for s in sets) for i in range(ws.n)):
            continue  # degenerate: some coordinate never vanishes
        pairs = characteristic_pairs(ws)
        diagonal_only = all(i == j for i, j in pairs)
        assert diagonal_only == oracle_sp(ws).holds


def test_characteristic_pairs_match_the_face_lattice():
    """The minimal faces give the forcing pairs that the whole face
    lattice gives, on ``fuzz_weights`` draws, affine and homogenized."""
    rng = random.Random(33)
    forcing = 0
    for _ in range(150):
        base = fuzz_weights(rng, rng.randint(1, 4), rng.randint(1, 8), rng.choice((2, 3)))
        for ws in (base, homogenize(base)):
            pairs = characteristic_pairs(ws)
            assert pairs == reference_characteristic_pairs(ws), ws
            forcing += any(i != j for i, j in pairs)
    assert forcing > 50


def test_characteristic_pairs_build_no_face_lattice(monkeypatch):
    """With ``enumerate_faces`` refused where the package binds it, the
    forcing pairs are still answered, and equal the lattice's."""
    rng = random.Random(34)
    systems = [ws for ws, _ in golden_verdicts()]
    systems += [random_weights(rng, rng.randint(1, 4), rng.randint(2, 8)) for _ in range(20)]
    expected = [reference_characteristic_pairs(ws) for ws in systems]

    def refuse(*args, **kwargs):
        raise AssertionError("the face lattice was built")

    for name in ("torsep.cones", "torsep.strata"):
        monkeypatch.setattr(importlib.import_module(name), "enumerate_faces", refuse)
    assert [characteristic_pairs(ws) for ws in systems] == expected


def test_oracles_compute_no_stratum_dimension(monkeypatch):
    """The oracles and the re-verification of their certificates read the
    faces' index sets alone: none of them computes a stratum's rank."""
    golden = [(ws, v) for ws, v in golden_verdicts() if v.kind.startswith("strata-")]

    def refuse(*args, **kwargs):
        raise AssertionError("a stratum dimension was computed")

    # ``torsep.strata`` is also the name of a function the package exports.
    monkeypatch.setattr(importlib.import_module("torsep.strata"), "rank", refuse)
    assert golden
    for ws, verdict in golden:
        target = homogenize(ws) if verdict.mode == "projective" else ws
        oracle_sp(target)
        oracle_wsp(target)
        characteristic_pairs(target)
        assert check_verdict(ws, verdict) == []
