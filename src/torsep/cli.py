"""Command-line surface.

Subcommands: decide, oracle, verify, ideal, strata, chpairs, binary.
Exit codes: 0 successful computation (whatever the verdicts), 2 input or
resource-guard error, 3 decision-hypothesis not satisfied, 4 internal
cross-check disagreement or an unverifiable certificate.  Verdicts
never drive the exit code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from .binary_forms import decide_sp_binary_orbit, form_to_string, parse_form
from .binary_forms import squarefree_multiplicity_parts
from .cones import DEFAULT_MAX_N, homogenize
from .errors import (
    CrossCheckError,
    HypothesisError,
    InputError,
    InternalError,
    ResourceGuardError,
)
from .ideals import binomial_generators, sp_violation_scan, verify_vanishing
from .reports import Instance, Report, emit_report, parse_instance, parse_json_instance
from .separation import decide, projective
from .strata import (
    characteristic_pairs,
    oracle_sp,
    oracle_wsp,
    ssp_coordinate_witness,
    strata,
)
from .verification import check_verdict

_PROPERTIES = {"sp": ["SP"], "wsp": ["WSP"], "ssp": ["SSP"], "all": ["SP", "WSP", "SSP"]}


def _verify_all(report: Report) -> bool:
    """Re-verify every verdict certificate before the report is printed."""
    ws = report.instance.payload
    report.verified = []
    ok = True
    for v in report.verdicts:
        problems = check_verdict(ws, v)
        report.verified.append(not problems)
        if problems:
            ok = False
            report.extra.setdefault("verification_failures", []).append(
                {"property": v.property_name, "mode": v.mode, "problems": problems}
            )
    return ok


def _cmd_decide(instance: Instance, args) -> Report:
    ws = instance.payload
    report = Report("decide", instance, {"mode": args.mode, "property": args.property})
    for prop in _PROPERTIES[args.property]:
        try:
            report.verdicts.append(decide(ws, prop, args.mode))
        except HypothesisError as exc:
            if args.property != "all":
                raise
            report.extra.setdefault("skipped", []).append(
                {"property": prop, "mode": args.mode, "reason": str(exc)}
            )
    return report


def _cmd_oracle(instance: Instance, args) -> Report:
    ws = instance.payload
    target = homogenize(ws) if args.mode == "projective" else ws
    report = Report("oracle", instance, {"mode": args.mode, "property": args.property})
    verdicts = []
    if args.property in ("sp", "all"):
        verdicts.append(oracle_sp(target, max_n=args.max_n))
    if args.property in ("wsp", "all"):
        verdicts.append(oracle_wsp(target, max_n=args.max_n))
    if args.mode == "projective":
        verdicts = [projective(v) for v in verdicts]
    report.verdicts = verdicts
    return report


def _cmd_ideal(instance: Instance, args) -> Report:
    ws = instance.payload
    report = Report("ideal", instance, {"max_n": args.max_n})
    binomials = binomial_generators(ws, max_n=args.max_n)
    report.extra = {
        "binomials": [
            {"a": list(b.a), "b": list(b.b), "text": b.to_string()} for b in binomials
        ],
        "relation_vectors": [list(b.vector) for b in binomials],
        "count": len(binomials),
        "spans_relation_lattice": True,  # enforced inside binomial_generators
    }
    return report


def _cmd_strata(instance: Instance, args) -> Report:
    ws = instance.payload
    report = Report("strata", instance, {"max_n": args.max_n})
    pieces = strata(ws, max_n=args.max_n)
    report.extra = {
        "strata": [
            {"indices": list(s.indices), "witness": list(s.witness), "dim": s.dim}
            for s in pieces
        ],
        "count": len(pieces),
    }
    return report


def _cmd_chpairs(instance: Instance, args) -> Report:
    ws = instance.payload
    report = Report("chpairs", instance, {"max_n": args.max_n})
    pairs = characteristic_pairs(ws, max_n=args.max_n)
    report.extra = {
        "pairs": [list(p) for p in pairs],
        "count": len(pairs),
        "diagonal_only": all(i == j for i, j in pairs),
    }
    return report


def _cmd_binary(instance: Instance, args) -> Report:
    form = instance.payload
    report = Report("binary", instance, {})
    decomposition = squarefree_multiplicity_parts(form)
    report.extra = {
        "separation_property": decide_sp_binary_orbit(form),
        "constant": decomposition.constant,
        "parts": [
            {"form": form_to_string(part), "coeffs": list(part.coeffs), "multiplicity": m}
            for part, m in decomposition.parts
        ],
    }
    return report


def _cmd_verify(instance: Instance, args) -> Report:
    """Run the theorem route, the stratum oracle and the pattern scan,
    and flag any disagreement (which exits with code 4)."""
    ws = instance.payload
    report = Report(
        "verify",
        instance,
        {"mode": args.mode, "trials": args.trials, "prime": args.prime},
        seed=args.seed,
    )
    target = homogenize(ws) if args.mode == "projective" else ws
    routes = {}
    agreement = True

    v_sp = decide(ws, "SP", args.mode)
    v_wsp = decide(ws, "WSP", args.mode)
    report.verdicts = [v_sp, v_wsp]
    o_sp = oracle_sp(target, max_n=args.max_n)
    o_wsp = oracle_wsp(target, max_n=args.max_n)

    binomials = binomial_generators(target, max_n=args.max_n)
    if target.n >= 2:
        scan = sp_violation_scan(binomials)
        scan_value = not scan.violating
    else:
        scan_value = "not-applicable"
    routes["SP"] = {"theorem": v_sp.holds, "oracle": o_sp.holds, "scan": scan_value}
    if o_sp.holds != v_sp.holds or (scan_value != "not-applicable" and scan_value != v_sp.holds):
        agreement = False
    routes["WSP"] = {"theorem": v_wsp.holds, "oracle": o_wsp.holds}
    if o_wsp.holds != v_wsp.holds:
        agreement = False

    try:
        v_ssp = decide(ws, "SSP", args.mode)
    except HypothesisError:
        routes["SSP"] = "skipped: orbit closure is not a cone"
    else:
        witness = ssp_coordinate_witness(target)
        report.verdicts.append(v_ssp)
        routes["SSP"] = {"theorem": v_ssp.holds, "witness_oracle": witness is None}
        if (witness is None) != v_ssp.holds:
            agreement = False

    vanishing = verify_vanishing(
        binomials, target, trials=args.trials, prime=args.prime, seed=args.seed
    )
    if not vanishing.passed:
        agreement = False
    report.extra = {
        "routes": routes,
        "vanishing": {
            "prime": vanishing.prime,
            "trials": vanishing.trials,
            "failures": len(vanishing.failures),
        },
        "agreement": agreement,
    }
    return report


_COMMANDS = {
    "decide": _cmd_decide,
    "oracle": _cmd_oracle,
    "ideal": _cmd_ideal,
    "strata": _cmd_strata,
    "chpairs": _cmd_chpairs,
    "binary": _cmd_binary,
    "verify": _cmd_verify,
}


def run_command(command: str, instance: Instance, args) -> Report:
    """Dispatch a parsed instance to a command implementation."""
    if instance.kind == "binary-form" and command != "binary":
        raise InputError(f"command {command!r} expects a weight system")
    if instance.kind == "weights" and command == "binary":
        raise InputError("command 'binary' expects a binary form")
    started = time.perf_counter()
    report = _COMMANDS[command](instance, args)
    if args.timing:
        report.timing_ms = round((time.perf_counter() - started) * 1000, 3)
    return report


def _read_input(path: str) -> str:
    # A byte that is not UTF-8 becomes a lone surrogate, refused by ``_utf8``.
    if path == "-":
        text = getattr(sys.stdin, "buffer", sys.stdin).read()
        return text if isinstance(text, str) else text.decode("utf-8", "surrogateescape")
    try:  # newline="": a file's line endings stay as on standard input
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _utf8(text: str) -> str:
    """``text``, unless ``_read_input`` found a byte in it that is not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise InputError("input is not valid UTF-8") from None
    return text


def _nonnegative_int(text: str) -> int:
    """The argparse type of ``--max-n``: an integer that is at least 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged,
    and nothing in it is read from the environment."""
    parser = argparse.ArgumentParser(
        prog="torsep",
        description="Decide separation properties of toric orbit closures, "
        "with independently checkable certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, guarded=True):
        p.add_argument("input", nargs="?", default="-",
                       help="instance file, or '-' for stdin (default)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        if guarded:
            p.add_argument("--max-n", dest="max_n", type=_nonnegative_int,
                           default=DEFAULT_MAX_N, metavar="N",
                           help="refuse more than 2^N faces, or a Graver "
                           "completion over more than N weights (default 12)")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")
        p.add_argument("--batch", action="store_true",
                       help="treat each nonblank input line as one JSON instance")

    p = sub.add_parser("decide", help="theorem-route verdicts")
    common(p, guarded=False)
    p.add_argument("--mode", choices=("affine", "projective"), default="affine")
    p.add_argument("--property", choices=("sp", "wsp", "ssp", "all"), default="all")

    p = sub.add_parser("oracle", help="stratum-oracle verdicts")
    common(p)
    p.add_argument("--mode", choices=("affine", "projective"), default="affine")
    p.add_argument("--property", choices=("sp", "wsp", "all"), default="all")

    p = sub.add_parser("verify", help="all routes plus agreement check")
    common(p)
    p.add_argument("--mode", choices=("affine", "projective"), default="affine")
    p.add_argument("--seed", type=int, default=None,
                   help="vanishing-check seed (default: $TORSEP_SEED, else 0)")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--prime", type=int, default=10007,
                   help="odd prime of the vanishing check, at most 2^31 - 1")

    p = sub.add_parser("ideal", help="binomial generating system")
    common(p)

    p = sub.add_parser("strata", help="orbit strata of the closure")
    common(p)

    p = sub.add_parser("chpairs", help="coordinate forcing pairs")
    common(p)

    p = sub.add_parser("binary", help="separation property of a binary form orbit")
    common(p, guarded=False)
    p.add_argument("--form", help="binary form text, e.g. 'x*y^3 - x^4'")

    return parser


def _process_one(text: str, args, out, line: int | None = None) -> int:
    """Run one instance, input line ``line`` of a ``--batch`` run.

    A batch line that prints no JSON report prints an error record in
    its place, so JSON batch output stays aligned with its input."""
    where = "" if line is None else f"line {line}: "
    try:
        if args.command == "binary" and args.form is not None:
            instance = Instance("binary-form", parse_form(args.form))
        elif args.batch:
            instance = parse_json_instance(_utf8(text))
        else:
            instance = parse_instance(_utf8(text))
        report = run_command(args.command, instance, args)
        certificates_ok = _verify_all(report)
        out.write(emit_report(report, args.format))
        if not certificates_ok:
            print(f"{where}error: a certificate failed re-verification", file=sys.stderr)
            return 4
        if report.extra.get("agreement") is False:
            print(f"{where}error: independent decision routes disagree", file=sys.stderr)
            return 4
        return 0
    except (InputError, ResourceGuardError) as exc:
        code, kind, message = 2, "error", str(exc)
    except HypothesisError as exc:
        code, kind, message = 3, "hypothesis error", str(exc)
    except (CrossCheckError, InternalError) as exc:
        code, kind, message = 4, "internal error", str(exc)
    print(f"{where}{kind}: {message}", file=sys.stderr)
    if line is not None and args.format == "json":
        out.write(json.dumps({"line": line, "error": message, "exit_class": code}) + "\n")
    return code


def _env_seed() -> int:
    """``verify``'s default seed: ``$TORSEP_SEED`` at call time, else 0."""
    value = os.environ.get("TORSEP_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise InputError(f"TORSEP_SEED must be an integer, got {value!r}") from None


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = sys.stdout
    try:
        if args.command == "verify" and args.seed is None:
            args.seed = _env_seed()
        if args.command == "binary" and args.form is not None:
            if args.batch:
                raise InputError("--form cannot be combined with --batch")
            return _process_one("", args, out)
        text = _read_input(args.input)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.batch:
        code = 0
        # Only "\n" ends a line (``str.splitlines`` also splits at U+2028).
        for k, line in enumerate(text.split("\n"), 1):
            if line.strip():
                code = max(code, _process_one(line, args, out, k))
        return code
    return _process_one(text, args, out)


if __name__ == "__main__":
    sys.exit(main())
