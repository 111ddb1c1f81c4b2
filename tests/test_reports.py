import json
from fractions import Fraction

import pytest

from helpers import M_WEIGHTS, golden_verdicts
from torsep.errors import InputError
from torsep.reports import (
    Instance,
    Report,
    emit_report,
    parse_instance,
    report_from_json,
)
from torsep.separation import decide_affine_sp, decide_affine_wsp
from torsep.verdict import Verdict
from torsep.verification import check_verdict


def test_parse_json_weights():
    inst = parse_instance('{"d":2,"weights":[[1,1],[2,0],[0,2]]}')
    assert inst.kind == "weights"
    assert inst.payload.dim == 2
    assert inst.payload.n == 3
    assert parse_instance('\r\n{"d":2,"weights":[[1,1],[2,0],[0,2]]}\r\n') == inst


def test_parse_text_weights():
    inst = parse_instance("1 2\n1\n-1")
    assert inst.payload.dim == 1
    assert inst.payload.weights == ((1,), (-1,))
    assert parse_instance("1 2\r\n1\r\n-1\r\n") == inst


def test_parse_dimension_mismatch():
    with pytest.raises(InputError):
        parse_instance('{"d":2,"weights":[[1],[2,0]]}')


def test_parse_errors_carry_location():
    with pytest.raises(InputError, match="line 1"):
        parse_instance("{bad json")
    with pytest.raises(InputError, match="line 3"):
        parse_instance("1 2\n1\nx")
    # ``int`` alone would read 1_0 as 10 and an Arabic-Indic one as 1.
    with pytest.raises(InputError, match="^line 2: '1_0' is not a decimal integer$"):
        parse_instance("2 2\n1_0 0\n0 1")
    with pytest.raises(InputError, match="^line 3: '\u0661' is not a decimal integer$"):
        parse_instance("2 2\n10 0\n0 \u0661")
    with pytest.raises(InputError, match="^line 1: '\u0662' is not a decimal integer$"):
        parse_instance("\u0662 2\n1 0\n0 1")
    with pytest.raises(InputError):
        parse_instance('{"d":2,"weights":[]}')
    with pytest.raises(InputError):
        parse_instance("")
    # A line number counts every input line, blank ones too, in both formats.
    with pytest.raises(InputError, match="^line 4: 'x' is not a decimal integer$"):
        parse_instance("2 2\n\n1 0\nx 1")
    with pytest.raises(InputError, match="^line 3: expected header 'd n'$"):
        parse_instance("\n \n2 2 2\n1 0\n0 1")
    with pytest.raises(InputError, match="^line 3: d and n must be positive$"):
        parse_instance("\n\n0 2\n1 0\n0 1")
    with pytest.raises(InputError, match="parse error at line 3, column 30: "):
        parse_instance('\n\n{"d": 2, "weights": [[1, 0], x]}')
    with pytest.raises(InputError, match="^line 2: numeral of 5000 characters is longer than "
                       "the interpreter reads$"):
        parse_instance("2 2\n" + "7" * 5000 + " 0\n0 1")
    for separator in "\f\v\r\x1c\x85\u2028":  # only "\n" ends a line; these do not
        with pytest.raises(InputError, match="^expected 2 weight lines, found 1$"):
            parse_instance(f"2 2\n1 0{separator}0 1")


def test_parse_binary_form_payloads():
    inst = parse_instance('{"form": "x*y^3"}')
    assert inst.kind == "binary-form"
    assert inst.payload.degree == 4
    inst2 = parse_instance('{"coeffs": ["1", "0", "-2"]}')
    assert inst2.payload.degree == 2
    inst3 = parse_instance('{"coeffs": [4, "+3", "-1/2", "06/4"]}')
    assert inst3.payload.coeffs == (4, 3, Fraction(-1, 2), Fraction(3, 2))


def _sample_report():
    inst = parse_instance('{"d":2,"weights":[[1,1],[2,0],[0,2]],"label":"M"}')
    return Report("decide", inst, {"mode": "affine", "property": "all"},
                  [decide_affine_sp(M_WEIGHTS), decide_affine_wsp(M_WEIGHTS)], [True, True])


def test_json_round_trip_is_a_fixed_point():
    report = _sample_report()
    emitted = emit_report(report, "json")
    rebuilt = report_from_json(json.loads(emitted))
    assert emit_report(rebuilt, "json") == emitted


def test_golden_verdicts_re_verify_after_a_json_round_trip():
    """Certificate rationals are written as strings and read back as
    Fractions, so a report read back is checked as it was emitted."""
    kinds = set()
    for ws, verdict in golden_verdicts():
        report = Report("decide", Instance("weights", ws), {}, [verdict])
        rebuilt = report_from_json(json.loads(emit_report(report, "json")))
        assert check_verdict(rebuilt.instance.payload, rebuilt.verdicts[0]) == [], verdict
        kinds.add(verdict.kind)
    assert {"generator-in-cone", "kernel-witness", "line-in-cone"} <= kinds


def test_report_from_json_rejects_non_bool_holds():
    payload = json.loads(emit_report(_sample_report(), "json"))
    payload["verdicts"][0]["holds"] = "false"
    with pytest.raises(InputError, match="holds"):
        report_from_json(payload)


def test_report_from_json_names_what_a_malformed_document_lacks():
    def refused(document):
        with pytest.raises(InputError) as excinfo:
            report_from_json(document)
        return str(excinfo.value)

    assert refused([]) == "the report must be a JSON object, not list"
    payload = json.loads(emit_report(_sample_report(), "json"))
    assert refused({**payload, "schema": "torsep/2"}) == "unsupported schema 'torsep/2'"
    del payload["command"]
    assert refused(payload) == "the report has no 'command'"
    payload = json.loads(emit_report(_sample_report(), "json"))
    del payload["verdicts"][1]["property"]
    assert refused(payload) == "verdict 1 has no 'property'"
    payload["verdicts"][1] = "SP"
    assert refused(payload) == "verdict 1 must be a JSON object, not str"
    for name in ("verdicts", "options", "extra"):
        payload = json.loads(emit_report(_sample_report(), "json"))
        payload[name] = 5
        kind = "array" if name == "verdicts" else "object"
        assert refused(payload) == f"{name!r} of the report must be a JSON {kind}, not int"
    payload = json.loads(emit_report(_sample_report(), "json"))
    payload["verdicts"][0]["notes"] = "abc"
    assert refused(payload) == "'notes' of verdict 0 must be a JSON array, not str"
    payload = json.loads(emit_report(_sample_report(), "json"))
    payload["verdicts"][0]["certificate"]["coefficients"][0] = "9" * 5000
    assert refused(payload) == ("certificate numeral of 5000 characters is longer than the "
                                "interpreter reads")


def test_a_certificate_numeral_in_other_digits_stays_a_string():
    """Only the ASCII strings ``_rational`` writes are read back as Fractions."""
    payload = json.loads(emit_report(_sample_report(), "json"))
    assert payload["verdicts"][0]["certificate"]["coefficients"] == ["0", "1/2", "1/2"]
    payload["verdicts"][0]["certificate"]["coefficients"][1] = "\u0661/2"
    rebuilt = report_from_json(payload)
    assert rebuilt.verdicts[0].certificate["coefficients"][1] == "\u0661/2"
    assert check_verdict(rebuilt.instance.payload, rebuilt.verdicts[0]) != []


@pytest.mark.parametrize("text, message", [
    ('{"weights": [[1, 2], [3]]}', "weight 1 has length 1, expected 2"),
    ("2 2\n1 2\n3", "weight 1 has length 1, expected 2"),
    ('{"weights": [[1, 2], "ab"]}', "weight 1 must be a list or tuple, not str"),
    ('{"weights": [[1, 2], {"a": 1}]}', "weight 1 must be a list or tuple, not dict"),
    ('{"weights": [[1, true]]}', "non-integer entry True in weight 0"),
    ('{"weights": [[1, 2.5]]}', "non-integer entry 2.5 in weight 0"),
])
def test_json_weights_get_the_weight_system_messages(text, message):
    """A malformed weight reads the same as JSON and as text."""
    with pytest.raises(InputError) as excinfo:
        parse_instance(text)
    assert str(excinfo.value) == message


def test_json_field_order_is_stable():
    payload = json.loads(emit_report(_sample_report(), "json"))
    assert list(payload) == [
        "schema",
        "version",
        "command",
        "instance",
        "options",
        "seed",
        "verdicts",
        "extra",
        "timing_ms",
    ]
    assert payload["schema"] == "torsep/1"


def test_text_rendering_contains_verdict_lines():
    text = emit_report(_sample_report(), "text")
    assert "SP (affine): FAILS" in text
    assert "WSP (affine): HOLDS" in text
    assert "witness pair: x2 = 0 forces x1 = 0" in text
    assert "certificate" in text


def test_every_pair_the_deciders_make_is_described():
    for ws, verdict in golden_verdicts():
        text = emit_report(Report("decide", Instance("weights", ws), {}, [verdict]), "text")
        assert ("  witness pair: x" in text) == ("pair" in verdict.certificate), verdict


@pytest.mark.parametrize("certificate", [
    {"kind": "strata-forcing-pair", "pair": [0, 1, 2]},
    {"kind": "strata-forcing-pair", "pair": ["a", "b"]},
    {"kind": "strata-forcing-pair", "pair": [0]},
    {"kind": "strata-forcing-pair", "pair": 7},
    {"kind": "strata-forcing-pair", "pair": [True, 1]},
    {"kind": "strata-forcing-pair", "pair": [0, 1.0]},
    {"kind": "no-such-kind", "pair": [0, 1]},
])
def test_text_report_reads_only_a_pair_of_two_positions(certificate):
    """A pair that is not two ints, or of a kind ``KINDS`` does not list,
    gets no witness-pair line; the raw pair still shows in the
    certificate block."""
    verdict = Verdict("SP", "affine", False, certificate)
    text = emit_report(Report("decide", Instance("weights", M_WEIGHTS), {}, [verdict]), "text")
    assert "witness pair" not in text
    assert "\n    pair: " in text


def test_text_report_strings_start_no_line():
    """A note and a certificate string holding a line break, read back
    from JSON, each print on one line: neither forges a verdict line."""
    verdict = Verdict("SP", "affine", False, {"kind": "no-such-kind",
                                              "x\nSSP (affine): HOLDS": "x\nSSP (affine): HOLDS"},
                      ("a\nSP (affine): FAILS",))
    report = Report("decide", Instance("weights", M_WEIGHTS), {}, [verdict],
                    extra={"k\n": ["v\rw"]})
    text = emit_report(report_from_json(json.loads(emit_report(report, "json"))), "text")
    assert "  note: a\\nSP (affine): FAILS\n" in text
    assert "    x\\nSSP (affine): HOLDS: x\\nSSP (affine): HOLDS\n" in text
    assert "  k\\n: (v\\rw)\n" in text
    assert [ln for ln in text.splitlines() if ln.startswith(("SP", "SSP"))] == [
        "SP (affine): FAILS"]


def test_unknown_format_rejected():
    with pytest.raises(InputError):
        emit_report(_sample_report(), "yaml")


def test_json_writer_matches_the_standard_encoder():
    """A JSON report is one ASCII line that decodes to the indented
    standard encoding, with a label holding non-ASCII text, a quote, a
    backslash and a line break, empty containers, rationals, None,
    booleans and a float."""
    label = 'é "q" \\ \n   日本'
    for ws, verdict in golden_verdicts():
        inst = Instance("weights", ws, label)
        report = Report("decide", inst, {"mode": verdict.mode, "property": None}, [verdict],
                        [True], {"empty": {}, "none": [], "nested": [(), {"a": 1.5}],
                                 "half": Fraction(1, 2), "flags": (True, False)},
                        timing_ms=0.25)
        emitted = emit_report(report, "json")
        assert emitted.isascii() and emitted.endswith("\n") and emitted.count("\n") == 1
        assert json.loads(emitted) == json.loads(
            json.dumps(report.to_json(), indent=2, default=str))


def test_json_writer_refuses_an_unknown_type():
    report = _sample_report()._replace(extra={"faces": {frozenset({0})}})
    with pytest.raises(InputError, match="cannot encode set into JSON"):
        emit_report(report, "json")


@pytest.mark.parametrize("text", [
    '{"form": "x*y", "weights": [[1]]}',
    '{"coeffs": [1, 0], "form": "x*y"}',
    '{"d": 1, "weights": [[1]], "coeffs": [1, 0]}',
])
def test_instance_naming_two_payloads_is_refused(text):
    with pytest.raises(InputError, match="more than one of 'weights', 'coeffs' and 'form'"):
        parse_instance(text)
