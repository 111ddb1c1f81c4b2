"""Seeded differential fuzz test across the independent routes.

Small entries: the theorem route, the stratum oracle, the Graver SP scan
and the LP reference loop must agree on SP and WSP, in both modes.
Entries up to +-50 (face and cone routes only; the Graver scan cannot
handle entries that large): the facet face lattice must equal the
``2^n`` LP scan, SP must equal the LP reference loop, the cone
hypothesis its LP reference, and the facet scan for an SSP coordinate
witness the scan of every stratum.  A disagreement is shrunk (weights
dropped, entries halved) and the smallest instance is printed.
"""

import random

import pytest

from helpers import (
    brute_force_faces,
    fuzz_weights,
    reference_affine_sp,
    reference_cone_hypothesis,
    reference_ssp_witness,
    shrink,
)
from torsep.cones import enumerate_faces, homogenize
from torsep.ideals import binomial_generators, sp_violation_scan
from torsep.separation import cone_hypothesis, decide
from torsep.strata import oracle_sp, oracle_wsp, ssp_coordinate_witness


def _graver_sp(ws):
    return ws.n == 1 or not sp_violation_scan(binomial_generators(ws)).violating


def _small_entry_disagreement(ws):
    """Where the SP/WSP routes disagree on ``ws``, or None."""
    for mode in ("affine", "projective"):
        target = homogenize(ws) if mode == "projective" else ws
        sp = {
            "theorem": decide(ws, "SP", mode).holds,
            "oracle": oracle_sp(target).holds,
            "graver": _graver_sp(target),
            "reference": reference_affine_sp(target).holds,
        }
        wsp = {"theorem": decide(ws, "WSP", mode).holds,
               "oracle": oracle_wsp(target).holds}
        if len(set(sp.values())) > 1:
            return f"{mode} SP: {sp}"
        if len(set(wsp.values())) > 1:
            return f"{mode} WSP: {wsp}"
    return None


def _large_entry_disagreement(ws):
    """Where the face and cone routes disagree on ``ws``, or None."""
    for target in (ws, homogenize(ws)):
        faces = tuple(f.indices for f in enumerate_faces(target))
        scanned = tuple(indices for indices, _ in brute_force_faces(target))
        if faces != scanned:
            return f"faces {faces} != scan {scanned} on {target.weights}"
        sp, reference = decide(target, "SP"), reference_affine_sp(target)
        if (sp.holds, sp.kind) != (reference.holds, reference.kind) or (
                not sp.holds and sp.certificate != reference.certificate):
            return f"SP {sp} != reference {reference} on {target.weights}"
        if cone_hypothesis(target)[0] != reference_cone_hypothesis(target)[0]:
            return f"cone hypothesis differs on {target.weights}"
        witness, reference = ssp_coordinate_witness(target), reference_ssp_witness(target)
        if witness != reference:
            return f"SSP witness {witness} != stratum scan {reference} on {target.weights}"
    return None


def _guarded(check):
    """``check`` with a raised exception reported as a disagreement."""
    def run(ws):
        try:
            return check(ws)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            return f"{type(exc).__name__}: {exc}"
    return run


@pytest.mark.parametrize("check, bound, count, seed", [
    (_small_entry_disagreement, 2, 200, 7001),
    (_large_entry_disagreement, 50, 70, 7002),
])
def test_routes_agree_on_seeded_systems(check, bound, count, seed):
    check = _guarded(check)
    rng = random.Random(seed)
    for _ in range(count):
        ws = fuzz_weights(rng, rng.randint(1, 4), rng.randint(1, 6), bound)
        if check(ws) is not None:
            small = shrink(ws, check)
            message = f"{check(small)}; shrunk instance: {small.weights}"
            print(message)
            pytest.fail(message)


def test_shrink_reaches_a_minimal_instance():
    # A stand-in disagreement: "some weight has an entry >= 3 and there
    # are at least two weights".
    def fake(ws):
        return ws.n >= 2 and any(max(w) >= 3 for w in ws.weights) or None

    rng = random.Random(5)
    ws = fuzz_weights(rng, 3, 6, 50)
    while not fake(ws):
        ws = fuzz_weights(rng, 3, 6, 50)
    small = shrink(ws, fake)
    assert small.n == 2 and fake(small)
    assert max(max(w) for w in small.weights) in (3, 4, 5)
