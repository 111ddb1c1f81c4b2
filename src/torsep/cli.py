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
import sys
import time
from collections import namedtuple

from .binary_forms import form_to_string, squarefree_multiplicity_parts
from .cones import clear_caches, homogenize
from .errors import HypothesisError, InputError, InternalError, ResourceGuardError
from .ideals import binomial_generators, sp_violation_scan
from .linalg import count_nonrelations
from .reports import Instance, Report, emit_report, parse_instance, parse_json_instance, text_lines
from .separation import decide, projective
from .strata import characteristic_pairs, oracle_sp, oracle_wsp, ssp_coordinate_witness, strata
from .verdict import Verdict
from .verification import check_verdict

_PROPERTIES = {"sp": ["SP"], "wsp": ["WSP"], "ssp": ["SSP"], "all": ["SP", "WSP", "SSP"]}


def _decide(ws, args):
    verdicts, skipped = [], []
    for prop in _PROPERTIES[args.property]:
        try:
            verdicts.append(decide(ws, prop, args.mode))
        except HypothesisError as exc:
            if args.property != "all":
                raise
            skipped.append({"property": prop, "mode": args.mode, "reason": str(exc)})
    return verdicts, {"skipped": skipped} if skipped else {}


def _oracle(ws, prop: str, args) -> Verdict:
    """The stratum oracle's ``prop`` verdict in ``args.mode``: a projective
    one is the affine verdict of the homogenized weights, relabelled."""
    oracle = oracle_sp if prop == "SP" else oracle_wsp
    if args.mode == "projective":
        return projective(oracle(homogenize(ws)))
    return oracle(ws)


def _ideal(ws, args):
    binomials = binomial_generators(ws)
    return [], {
        "binomials": [
            {"a": list(b.a), "b": list(b.b), "text": b.to_string()} for b in binomials
        ],
        "relation_vectors": [list(b.vector) for b in binomials],
        "count": len(binomials),
        "spans_relation_lattice": True,  # enforced inside binomial_generators
    }


def _strata(ws, args):
    pieces = strata(ws)
    return [], {
        "strata": [
            {"indices": list(s.indices), "witness": list(s.witness), "dim": s.dim}
            for s in pieces
        ],
        "count": len(pieces),
    }


def _chpairs(ws, args):
    pairs = characteristic_pairs(ws)
    return [], {
        "pairs": [list(p) for p in pairs],
        "count": len(pairs),
        "diagonal_only": all(i == j for i, j in pairs),
    }


def _binary(form, args):
    decomposition = squarefree_multiplicity_parts(form)
    return [], {
        "separation_property": decomposition.separation_property,
        "constant": decomposition.constant,
        "parts": [
            {"form": form_to_string(part), "coeffs": list(part.coeffs), "multiplicity": m}
            for part, m in decomposition.parts
        ],
    }


def _verify(ws, args):
    """Run the theorem route, the stratum oracle and the pattern scan,
    and flag any disagreement (which exits with code 4).

    A failing affine SSP verdict's ``kernel-witness`` pair is the facet
    scan's own witness (the decider raises ``InternalError`` when that
    scan finds none), so the scan runs again only for the other verdicts.

    ``vanishing.failures`` counts the binomials x^a - x^b whose a - b is
    not a relation of the (homogenized) weights: exactly those that do not
    vanish on the torus orbit, since t^(aW) = t^(bW) for every t iff
    (a - b)W = 0.  A nonzero count breaks agreement."""
    target = homogenize(ws) if args.mode == "projective" else ws
    verdicts = [decide(ws, prop, args.mode) for prop in ("SP", "WSP")]
    routes = {v.property_name: {"theorem": v.holds,
                                "oracle": _oracle(ws, v.property_name, args).holds}
              for v in verdicts}
    binomials = binomial_generators(target)
    routes["SP"]["scan"] = (not sp_violation_scan(binomials).violating if target.n >= 2
                            else "not-applicable")
    try:
        v_ssp = decide(ws, "SSP", args.mode)
    except HypothesisError:
        routes["SSP"] = "skipped: orbit closure is not a cone"
    else:
        verdicts.append(v_ssp)
        witness = (v_ssp.certificate["pair"] if v_ssp.kind == "kernel-witness"
                   else ssp_coordinate_witness(target))
        routes["SSP"] = {"theorem": v_ssp.holds, "witness_oracle": witness is None}
    failures = count_nonrelations(target.weights, (b.vector for b in binomials))
    agreement = failures == 0 and all(
        value in (route["theorem"], "not-applicable")
        for route in routes.values() if isinstance(route, dict) for value in route.values())
    return verdicts, {"routes": routes, "vanishing": {"failures": failures},
                      "agreement": agreement}


def _property(*choices):
    """The ``--property`` option of a command that decides ``choices``, or all of them."""
    return "--property", {"choices": (*choices, "all"), "default": "all"}


_MODE = "--mode", {"choices": ("affine", "projective"), "default": "affine"}

# Each command's help line, its route, (payload, args) -> (verdicts, extra),
# its own options (flag, ``add_argument`` settings) and the options its
# report echoes, in order.
_Command = namedtuple("_Command", "help route options echoed")
_COMMANDS = {
    "decide": _Command("theorem-route verdicts", _decide,
                       (_MODE, _property("sp", "wsp", "ssp")), ("mode", "property")),
    "oracle": _Command("stratum-oracle verdicts",
                       lambda ws, args: ([_oracle(ws, prop, args) for prop in
                                          _PROPERTIES[args.property] if prop != "SSP"], {}),
                       (_MODE, _property("sp", "wsp")), ("mode", "property")),
    "verify": _Command("all routes plus agreement check", _verify, (_MODE,), ("mode",)),
    "ideal": _Command("binomial generating system", _ideal, (), ()),
    "strata": _Command("orbit strata of the closure", _strata, (), ()),
    "chpairs": _Command("coordinate forcing pairs", _chpairs, (), ()),
    "binary": _Command("separation property of a binary form orbit", _binary,
                       (("--form", {"help": "binary form text, e.g. 'x*y^3 - x^4'"}),), ()),
}


def run_command(command: str, instance: Instance, args) -> Report:
    """Check the instance kind, run the command's route (``timing_ms`` times
    it) and re-verify each verdict: the finished report's ``verified`` holds
    the outcomes, and ``extra["verification_failures"]`` each failure."""
    if instance.kind == "binary-form" and command != "binary":
        raise InputError(f"command {command!r} expects a weight system")
    if instance.kind == "weights" and command == "binary":
        raise InputError("command 'binary' expects a binary form")
    _, route, _, echoed = _COMMANDS[command]
    started = time.perf_counter()
    verdicts, extra = route(instance.payload, args)
    elapsed = round((time.perf_counter() - started) * 1000, 3)
    problems = [check_verdict(instance.payload, v) for v in verdicts]
    failures = [{"property": v.property_name, "mode": v.mode, "problems": p}
                for v, p in zip(verdicts, problems) if p]
    return Report(command, instance, {name: getattr(args, name) for name in echoed}, verdicts,
                  [not p for p in problems],
                  {**extra, "verification_failures": failures} if failures else extra,
                  elapsed if args.timing else None)


def _read_input(path: str) -> str:
    # A byte that is not UTF-8 becomes a lone surrogate, refused by ``_utf8``;
    # one leading byte-order mark is dropped, as RFC 8259, Section 8.1 allows.
    if path == "-":
        text = getattr(sys.stdin, "buffer", sys.stdin).read()
        text = text if isinstance(text, str) else text.decode("utf-8", "surrogateescape")
    else:
        try:  # newline="": a file's line endings stay as on standard input
            with open(path, encoding="utf-8", errors="surrogateescape", newline="") as handle:
                text = handle.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
    return text.removeprefix("\ufeff")


def _utf8(text: str) -> str:
    """``text``, unless ``_read_input`` found a byte in it that is not UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise InputError("input is not valid UTF-8") from None
    return text


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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("input", nargs="?", default="-",
                       help="instance file, or '-' for stdin (default)")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing in the report")
        p.add_argument("--batch", action="store_true",
                       help="treat each nonblank input line as one JSON instance")
        for flag, settings in command.options:
            p.add_argument(flag, **settings)
    return parser


def _process_one(text: str, args, line: int | None = None) -> int:
    """Run one instance, input line ``line`` of a ``--batch`` run, on empty ``cones`` caches.

    A batch line that prints no JSON report prints an error record in
    its place, so JSON batch output stays aligned with its input."""
    where = "" if line is None else f"line {line}: "
    clear_caches()
    try:
        parse = parse_json_instance if args.batch else parse_instance
        report = run_command(args.command, parse(_utf8(text)), args)
        sys.stdout.write(emit_report(report, args.format))
        if not all(report.verified):
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
    except InternalError as exc:
        code, kind, message = 4, "internal error", str(exc)
    print(f"{where}{kind}: {message}", file=sys.stderr)
    if line is not None and args.format == "json":
        sys.stdout.write(json.dumps({"line": line, "error": message, "exit_class": code}) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "binary" and args.form is not None:
            if args.batch:
                raise InputError("--form cannot be combined with --batch")
            return _process_one(json.dumps({"form": args.form}), args)
        text = _read_input(args.input)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.batch:
        code = 0
        for k, line in text_lines(text):
            code = max(code, _process_one(line, args, k))
        return code
    return _process_one(text, args)


if __name__ == "__main__":
    sys.exit(main())
