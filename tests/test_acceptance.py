"""Acceptance suite: one test per criterion, exact tolerances throughout.

Each test prints a single PASS line on success (run with -s to see them,
or rely on the per-test pytest verdicts).  All checks are exact; there
are no numeric tolerances anywhere.
"""

import io
import json
import random
import sys

from helpers import (
    FIVE_WEIGHTS,
    M_WEIGHTS,
    N_WEIGHTS,
    QUARTET_WEIGHTS,
    apply_unimodular,
    permute_weights,
    random_suite,
    random_unimodular,
    random_weights,
)
from torsep import cli
from torsep.binary_forms import (
    BinaryForm,
    decide_sp_binary_orbit,
    parse_form,
    squarefree_multiplicity_parts,
    substitute,
)
from torsep.cones import homogenize
from torsep.ideals import binomial_generators, sp_violation_scan, verify_vanishing
from torsep.linalg import kernel_lattice, lattice_equal, row_hnf
from torsep.separation import (
    cone_hypothesis,
    decide_affine_sp,
    decide_affine_ssp,
    decide_affine_wsp,
    decide_projective_sp,
    decide_projective_ssp,
    decide_projective_wsp,
)
from torsep.strata import oracle_sp, oracle_wsp, ssp_coordinate_witness
from torsep.verification import check_verdict

COLLECTED_VERDICTS = []


def _record(ws, verdict):
    COLLECTED_VERDICTS.append((ws, verdict))
    return verdict


def _report(name):
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_golden_m():
    sp = _record(M_WEIGHTS, decide_affine_sp(M_WEIGHTS))
    assert not sp.holds
    assert sp.certificate["pair"] == (1, 0)  # x2 = 0 forces x1 = 0
    wsp = _record(M_WEIGHTS, decide_affine_wsp(M_WEIGHTS))
    assert wsp.holds
    _report("1 (golden case M: SP fails with witness pair, WSP holds)")


def test_criterion_2_golden_n():
    sp = _record(N_WEIGHTS, decide_affine_sp(N_WEIGHTS))
    assert sp.holds
    is_cone, functional = cone_hypothesis(N_WEIGHTS)
    assert is_cone and functional is not None
    ssp = _record(N_WEIGHTS, decide_affine_ssp(N_WEIGHTS))
    assert not ssp.holds
    assert any("cone hypothesis verified" in note for note in ssp.notes)
    _report("2 (golden case N: SP holds, cone hypothesis verified, SSP fails)")


def test_criterion_3_golden_five_weights():
    sp = _record(FIVE_WEIGHTS, decide_affine_sp(FIVE_WEIGHTS))
    assert sp.holds
    lattice = kernel_lattice(FIVE_WEIGHTS.weights)
    assert len(lattice) == 2
    binomials = binomial_generators(FIVE_WEIGHTS)
    vectors = [b.vector for b in binomials]
    assert lattice_equal(vectors, lattice)
    hnf = row_hnf(lattice)
    assert row_hnf((*hnf, (3, -1, 1, 0, -2))) == hnf
    printed = {(3, -1, 1, 0, -2), (3, -2, 0, 1, -1), (0, 1, 1, -1, -1)}
    assert printed <= set(vectors)
    assert not sp_violation_scan(binomials).violating
    report = verify_vanishing(binomials, FIVE_WEIGHTS, trials=100, prime=10007, seed=3)
    assert report.passed and report.trials == 100
    _report("3 (golden five-weight case: SP holds, ideal spans kernel, scan clean, vanishing 100/100)")


def test_criterion_4_golden_projective_quartet():
    sp = _record(QUARTET_WEIGHTS, decide_projective_sp(QUARTET_WEIGHTS))
    assert sp.holds
    ssp = _record(QUARTET_WEIGHTS, decide_projective_ssp(QUARTET_WEIGHTS))
    assert not ssp.holds
    _report("4 (golden projective quartet: SP holds, SSP fails)")


def test_criterion_5_randomized_equivalence_suite():
    suite = random_suite(2026, 500, dims=(1, 2, 3), sizes=(1, 2, 3, 4, 5, 6))
    assert len(suite) >= 500
    cone_count = 0
    for ws in suite:
        sp = decide_affine_sp(ws).holds
        wsp = decide_affine_wsp(ws).holds
        assert oracle_sp(ws).holds == sp
        assert oracle_wsp(ws).holds == wsp
        binomials = binomial_generators(ws)
        if ws.n >= 2:
            assert (not sp_violation_scan(binomials).violating) == sp
        else:
            assert sp  # vacuous by the single-coordinate rule
        if sp:
            assert wsp
        if cone_hypothesis(ws)[0]:
            cone_count += 1
            if decide_affine_ssp(ws).holds:
                assert sp
    assert cone_count >= 50
    _report(
        "5 (500-instance equivalence: decider == oracle == scan, SP=>WSP, SSP=>SP on cones)"
    )


def test_criterion_6_invariance_suite():
    rng = random.Random(606)
    for _ in range(100):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4, 5)))
        perm = list(range(ws.n))
        rng.shuffle(perm)
        permuted = permute_weights(ws, perm)
        transformed = apply_unimodular(ws, random_unimodular(rng, ws.dim))
        for decider in (
            decide_affine_sp,
            decide_affine_wsp,
            decide_projective_sp,
            decide_projective_wsp,
            decide_projective_ssp,
        ):
            base = decider(ws)
            permuted_verdict = decider(permuted)
            assert base.holds == permuted_verdict.holds
            assert check_verdict(permuted, permuted_verdict) == []
            assert base.holds == decider(transformed).holds
    _report("6 (100-instance invariance under permutations and GL(d,Z))")


def test_criterion_7_projective_consistency():
    rng = random.Random(707)
    for _ in range(200):
        ws = random_weights(rng, rng.choice((1, 2, 3)), rng.choice((1, 2, 3, 4, 5)))
        hom = homogenize(ws)
        assert decide_projective_sp(ws).holds == oracle_sp(hom).holds
        assert decide_projective_wsp(ws).holds == oracle_wsp(hom).holds
        witness = ssp_coordinate_witness(hom)
        assert decide_projective_ssp(ws).holds == (witness is None)
    _report("7 (200-instance projective consistency against the stratum oracle)")


def test_criterion_8_binary_forms():
    for n in range(2, 7):
        f = BinaryForm.from_factors([(parse_form("x"), 1), (parse_form("y"), n - 1)])
        assert decide_sp_binary_orbit(f)
    negatives = [
        parse_form("x^2"),
        parse_form("x^2*y^2"),
        BinaryForm((1, 0, 2, 0, 1)),  # (x^2 + y^2)^2
    ]
    for f in negatives:
        assert not decide_sp_binary_orbit(f)
    rng = random.Random(808)
    forms = [parse_form("x*y^3")] + negatives
    for f in forms:
        expected = decide_sp_binary_orbit(f)
        decomposition = squarefree_multiplicity_parts(f)
        assert decomposition.reconstruct().coeffs == f.coeffs
        for _ in range(100):
            while True:
                from fractions import Fraction

                entries = [
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)
                ]
                if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                    break
            g = ((entries[0], entries[1]), (entries[2], entries[3]))
            assert decide_sp_binary_orbit(substitute(f, g)) == expected
    _report("8 (binary forms: multiplicity-one criterion, GL2 invariance, reconstruction)")


def _run_cli(argv, stdin_text):
    old_stdin, old_stdout = sys.stdin, sys.stdout
    sys.stdin = io.StringIO(stdin_text)
    sys.stdout = io.StringIO()
    try:
        code = cli.main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = old_stdin, old_stdout
    return code, out


GOLDEN_JSON = {
    "M": ('{"d":2,"weights":[[1,1],[2,0],[0,2]],"label":"M"}', "affine"),
    "N": ('{"d":3,"weights":[[1,0,0],[0,0,1],[1,1,0],[0,1,1]],"label":"N"}', "affine"),
    "five": (
        '{"d":3,"weights":[[1,0,0],[1,1,0],[0,1,2],[0,2,1],[1,0,1]],"label":"five"}',
        "affine",
    ),
    "quartet": ('{"d":2,"weights":[[1,2],[1,1],[3,0],[0,2]],"label":"quartet"}', "projective"),
}


def test_criterion_9_certificate_soundness_and_verify_command():
    # Every verdict collected by the earlier golden tests re-verifies.
    assert COLLECTED_VERDICTS, "golden criteria must run before this test"
    for ws, verdict in COLLECTED_VERDICTS:
        assert check_verdict(ws, verdict) == []
    # The verify command exits 0 on the full golden set, and every
    # emitted certificate is flagged verified in the reports.
    for label, (payload, mode) in GOLDEN_JSON.items():
        code, out = _run_cli(
            ["verify", "--format", "json", "--mode", mode, "-"], payload
        )
        assert code == 0, f"verify exited {code} on golden case {label}"
        report = json.loads(out)
        assert report["extra"]["agreement"] is True
        assert all(v["verified"] for v in report["verdicts"])
    _report("9 (certificate soundness: 100% re-verified; verify exits 0 on golden set)")
