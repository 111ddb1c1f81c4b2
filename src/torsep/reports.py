"""Instance parsing and report serialization for the command line.

Reports serialize to one line of JSON under the schema tag ``torsep/1``
with a stable field order, or to aligned human-readable text.  Exact
rationals are encoded as strings like ``"1/2"``; index data is 0-based,
while the textual rendering labels coordinates x1..xn (coordinate xk is
position k-1).
"""

from __future__ import annotations

import json
import re
import sys
from collections import namedtuple
from fractions import Fraction

from . import __version__
from .binary_forms import form_from_coeffs, form_to_string, parse_form, read_numeral
from .cones import WeightSystem
from .errors import InputError, ResourceGuardError
from .verdict import Verdict
from .verification import pair_reading

SCHEMA = "torsep/1"


class Instance(namedtuple("Instance", "kind payload label", defaults=(None,))):
    """A parsed problem instance: a weight system (``kind`` 'weights')
    or a binary form ('binary-form'), with an optional label."""

    __slots__ = ()


def parse_instance(text: str) -> Instance:
    """Parse an instance from JSON or from the whitespace weight format.

    JSON weights: {"d": 2, "weights": [[1, 1], [2, 0], [0, 2]]}.
    JSON binary forms: {"coeffs": [...]} or {"form": "x^2*y^2 - 3*x^4"}.
    Text weights: "d n", then n lines of d integers.  An error's line counts blank lines.
    """
    if text.lstrip().startswith("{"):
        return parse_json_instance(text)
    return _parse_text_weights(text)


def text_lines(text: str) -> list[tuple[int, str]]:
    r"""The nonblank lines of ``text``, each with its 1-based number.  Only
    "\n" ends a line: "\r\n" works, while "\r", "\f" or U+2028, where
    ``str.splitlines`` would also split, stay inside their line."""
    return [(k, line) for k, line in enumerate(text.split("\n"), 1) if line.strip()]


def parse_json_instance(text: str) -> Instance:
    """Parse a JSON instance; this is the only format of a ``--batch`` line."""
    try:
        data = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"not a JSON instance: parse error at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    except (RecursionError, ValueError) as exc:  # too deep, or an integer too long
        raise InputError(f"not a JSON instance: {exc}") from None
    return instance_from_json(data)


def _refuse_constant(name: str):
    raise InputError(f"not a JSON instance: {name} is not a JSON value (RFC 8259)")


def instance_from_json(data) -> Instance:
    if not isinstance(data, dict):
        raise InputError("instance JSON must be an object")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise InputError(f"'label' must be a string, got {type(label).__name__}")
    if label is not None and any("\ud800" <= ch <= "\udfff" for ch in label):
        raise InputError("'label' holds a lone surrogate, so it is not UTF-8 text")
    if sum(key in data for key in ("weights", "coeffs", "form")) > 1:
        raise InputError("instance JSON names more than one of 'weights', 'coeffs' and 'form'")
    if "weights" in data or data.get("kind") == "weights":
        rows = data.get("weights")
        if not isinstance(rows, list) or not rows:
            raise InputError("'weights' must be a nonempty list of rows")
        d = data.get("d", len(rows[0]) if isinstance(rows[0], list) else None)
        if not isinstance(d, int) or isinstance(d, bool) or d < 1:
            raise InputError("'d' must be a positive integer")
        return Instance("weights", WeightSystem(d, rows), label)
    if "coeffs" in data:
        return Instance("binary-form", form_from_coeffs(data["coeffs"]), label)
    if "form" in data:
        if not isinstance(data["form"], str):
            raise InputError("'form' must be a string")
        return Instance("binary-form", parse_form(data["form"]), label)
    raise InputError("instance JSON needs 'weights', 'coeffs' or 'form'")


_DECIMAL = re.compile(r"[+-]?[0-9]+")


def read_integer(text: str, where: str = "") -> int:
    """``text`` as an int: an ASCII decimal integer with an optional sign, the
    grammar of the text weights' header and entries."""
    if not _DECIMAL.fullmatch(text):
        raise InputError(f"{where}{text!r} is not a decimal integer")
    return read_numeral(text, where, int)


def _parse_text_weights(text: str) -> Instance:
    lines = text_lines(text)
    if not lines:
        raise InputError("empty instance")
    (first, header), rows = lines[0], lines[1:]
    header = header.split()
    if len(header) != 2:
        raise InputError(f"line {first}: expected header 'd n'")
    d, n = (read_integer(token, f"line {first}: ") for token in header)
    if d < 1 or n < 1:
        raise InputError(f"line {first}: d and n must be positive")
    if len(rows) != n:
        raise InputError(f"expected {n} weight lines, found {len(rows)}")
    weights = [tuple(read_integer(token, f"line {idx}: ") for token in line.split())
               for idx, line in rows]
    return Instance("weights", WeightSystem(d, tuple(weights)), None)


def instance_to_json(instance: Instance) -> dict:
    if instance.kind == "weights":
        ws = instance.payload
        return {"kind": "weights", "d": ws.dim, "weights": [list(w) for w in ws.weights],
                "label": instance.label}
    return {"kind": "binary-form", "coeffs": [str(c) for c in instance.payload.coeffs],
            "label": instance.label}


class Report(namedtuple("Report", "command instance options verdicts verified extra "
                        "timing_ms version", defaults=((), (), None, None, __version__))):
    """Everything one command run produced, ready for serialization.

    ``verified[i]`` is the re-verification outcome of ``verdicts[i]``
    (missing: not checked).  Every default is immutable; an ``extra`` of
    None is written as ``{}``."""

    __slots__ = ()

    def to_json(self) -> dict:
        """The report's fields in schema order; tuples and Fractions are
        left as they are for the encoder (``emit_report``)."""
        verdict_entries = [{
            "property": v.property_name,
            "mode": v.mode,
            "holds": v.holds,
            "certificate": dict(v.certificate),
            "notes": list(v.notes),
            "verified": self.verified[i] if i < len(self.verified) else None,
        } for i, v in enumerate(self.verdicts)]
        return {
            "schema": SCHEMA,
            "version": self.version,
            "command": self.command,
            "instance": instance_to_json(self.instance),
            "options": self.options,
            "seed": None,  # no command is seeded; the key stays in torsep/1
            "verdicts": verdict_entries,
            "extra": {} if self.extra is None else self.extra,
            "timing_ms": self.timing_ms,
        }


# The strings ``_rational`` writes for a Fraction.
_RATIONAL = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")


def _decode_rationals(value):
    """Undo ``_rational`` on certificate data: rational strings become Fractions."""
    if isinstance(value, str):
        return read_numeral(value, "certificate ") if _RATIONAL.fullmatch(value) else value
    if isinstance(value, list):
        return [_decode_rationals(v) for v in value]
    if isinstance(value, dict):
        return {k: _decode_rationals(v) for k, v in value.items()}
    return value


def _fields(data, names: str, where: str) -> list:
    """The values of the space-separated ``names`` in the JSON object ``data``."""
    if not isinstance(data, dict):
        raise InputError(f"{where} must be a JSON object, not {type(data).__name__}")
    for name in names.split():
        if name not in data:
            raise InputError(f"{where} has no {name!r}")
    return [data[name] for name in names.split()]


def _optional(data: dict, name: str, default, where: str):
    """``data[name]``, or ``default`` if it is missing; refused unless of ``default``'s type."""
    value = data.get(name, default)
    if not isinstance(value, type(default)):
        kind = "array" if isinstance(default, list) else "object"
        raise InputError(f"{name!r} of {where} must be a JSON {kind}, not {type(value).__name__}")
    return value


def report_from_json(data) -> Report:
    """Rebuild a Report from its JSON form.

    The instance is reconstructed with full types, and certificate
    rationals become Fractions again, so the verdicts re-verify.
    """
    if not isinstance(data, dict):
        raise InputError(f"the report must be a JSON object, not {type(data).__name__}")
    if data.get("schema") != SCHEMA:
        raise InputError(f"unsupported schema {data.get('schema')!r}")
    command, instance = _fields(data, "command instance", "the report")
    entries, verdicts = _optional(data, "verdicts", [], "the report"), []
    options, extra = (_optional(data, name, {}, "the report") for name in ("options", "extra"))
    for i, entry in enumerate(entries):
        prop, mode, holds, cert = _fields(entry, "property mode holds certificate", f"verdict {i}")
        verdicts.append(Verdict(prop, mode, holds, _decode_rationals(cert),
                                tuple(_optional(entry, "notes", [], f"verdict {i}"))))
    return Report(command, instance_from_json(instance), options, verdicts,
                  [e.get("verified") for e in entries], extra,
                  data.get("timing_ms"), data.get("version", __version__))


def _render_value(value, indent):
    pad = " " * indent
    if isinstance(value, dict):
        lines = []
        for k, v in value.items():
            if isinstance(v, (dict, list, tuple)) and v and not _is_flat(v):
                lines.append(f"{pad}{_flat(k)}:")
                lines.append(_render_value(v, indent + 2))
            else:
                lines.append(f"{pad}{_flat(k)}: {_flat(v)}")
        return "\n".join(lines)
    return "\n".join(f"{pad}- {_flat(v)}" for v in value)


def _is_flat(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(not isinstance(v, (dict, list, tuple)) for v in value)
    return False


def _flat(value) -> str:
    """``value`` on one line: every string in it goes through ``_printable``."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{_flat(k)}: {_flat(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(_flat(v) for v in value) + ")"
    if value is None:
        return "-"
    return _printable(value) if isinstance(value, str) else str(value)


_READINGS = {
    "forcing": "x{0} = 0 forces x{1} = 0",
    "missed": "x{0} never vanishes on the closure",
    "section": "x{0} and x{1} cut the closure in the same hyperplane section",
    "codimension": "x{0} = x{1} = 0 meets the closure in codimension at most 1",
}


def _describe_pair(verdict: Verdict) -> str | None:
    """What the pair shows under the verdict's property (``pair_reading``),
    read off the pair alone; None where it reads as nothing or is not two ints."""
    reading, pair = pair_reading(verdict), verdict.certificate.get("pair")
    if (reading and isinstance(pair, (list, tuple)) and len(pair) == 2
            and all(type(k) is int for k in pair)):
        return _READINGS[reading].format(*(k + 1 for k in pair))
    return None


def _printable(text: str) -> str:
    """``text`` with each unprintable character (line breaks, controls,
    format characters) as its Python escape: a string starts no line."""
    return "".join(ch if ch.isprintable() else ascii(ch)[1:-1] for ch in text)


def render_text(report: Report) -> str:
    """Aligned human-readable rendering of a report.  Every string in it,
    read back from JSON or not, goes through ``_printable``: none starts a line."""
    lines = [f"torsep {_flat(report.version)} — {_flat(report.command)}"]
    opts = ", ".join(f"{_flat(k)}={_flat(v)}" for k, v in report.options.items() if v is not None)
    if opts:
        lines.append(f"options: {opts}")
    inst = report.instance
    label = f"  label: {_printable(inst.label)}" if inst.label else ""
    if inst.kind == "weights":
        ws = inst.payload
        shown = " ".join("(" + ",".join(str(x) for x in w) + ")" for w in ws.weights)
        lines.append(f"instance: weights d={ws.dim} n={ws.n}: {shown}{label}")
    else:
        lines.append(f"instance: binary form {form_to_string(inst.payload)}{label}")
    lines.append("")
    for i, v in enumerate(report.verdicts):
        word = "HOLDS" if v.holds else "FAILS"
        lines.append(f"{v.property_name} ({v.mode}): {word}")
        described = _describe_pair(v)
        if described:
            lines.append(f"  witness pair: {described}")
        lines.append("  certificate:")
        lines.append(_render_value(dict(v.certificate), 4))
        for note in v.notes:
            lines.append(f"  note: {_flat(note)}")
        ok = report.verified[i] if i < len(report.verified) else None
        lines.append(f"  verified: {'yes' if ok else 'NO' if ok is False else '-'}")
    if report.extra:
        lines.append("extra:")
        lines.append(_render_value(report.extra, 2))
    if report.timing_ms is not None:
        lines.append(f"timing_ms: {_flat(report.timing_ms)}")
    return "\n".join(lines) + "\n"


def _rational(value) -> str:
    """The JSON encoder's fallback: a Fraction as '3' or '1/2'; any
    other type the encoder does not write is refused."""
    if isinstance(value, Fraction):
        return str(value)
    raise InputError(f"cannot encode {type(value).__name__} into JSON")


def emit_report(report: Report, fmt: str = "text") -> str:
    """Serialize the report as JSON (stable field order) or as text."""
    try:
        if fmt == "json":
            return json.dumps(report.to_json(), default=_rational) + "\n"
        if fmt == "text":
            return render_text(report)
    except ValueError:  # an integer longer than the interpreter writes
        limit = sys.get_int_max_str_digits()
        raise ResourceGuardError(f"report holds an integer of more than {limit} digits, "
                                 "the interpreter's limit for writing one") from None
    raise InputError(f"unknown format {fmt!r}")
