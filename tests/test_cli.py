import argparse
import hashlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import torsep.cones
import torsep.lp
from helpers import (
    FIVE_WEIGHTS,
    M_WEIGHTS,
    N_WEIGHTS,
    QUARTET_WEIGHTS,
    clear_cone_caches,
    fuzz_weights,
    random_weights,
    reference_characteristic_pairs,
    subprocess_env,
)
from torsep import binary_forms, cli, cones, ideals, separation
from torsep.cones import WeightSystem, homogenize
from torsep.errors import InternalError
from torsep.ideals import Binomial

M_JSON = '{"d":2,"weights":[[1,1],[2,0],[0,2]],"label":"M"}'
FIVE_JSON = '{"d":3,"weights":[[1,0,0],[1,1,0],[0,1,2],[0,2,1],[1,0,1]]}'


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_text(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(M_JSON)
    code, out, _ = run_cli(capsys, ["decide", str(path)])
    assert code == 0
    assert "SP (affine): FAILS" in out
    assert "verified: yes" in out
    assert "timing_ms" not in out
    code, out, _ = run_cli(capsys, ["decide", "--timing", "--format", "text", str(path)])
    assert code == 0
    assert len([line for line in out.splitlines() if line.startswith("timing_ms: ")]) == 1


def test_decide_json_verdicts(capsys, monkeypatch, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(M_JSON)
    code, out, _ = run_cli(capsys, ["decide", "--format", "json", str(path)])
    assert code == 0
    payload = json.loads(out)
    by_prop = {v["property"]: v for v in payload["verdicts"]}
    assert not by_prop["SP"]["holds"]
    assert by_prop["SP"]["certificate"]["pair"] == [1, 0]
    assert by_prop["WSP"]["holds"]
    assert all(v["verified"] for v in payload["verdicts"])


def test_input_error_exit_code(capsys, monkeypatch, tmp_path):
    code, _, err = run_cli(capsys, ["decide", "-"], stdin="nonsense", monkeypatch=monkeypatch)
    assert code == 2
    assert "error" in err
    missing = tmp_path / "absent.json"
    code, out, err = run_cli(capsys, ["decide", str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: ")


def test_hypothesis_error_exit_code(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["decide", "--property", "ssp", "-"],
        stdin=FIVE_JSON,
        monkeypatch=monkeypatch,
    )
    assert code == 3
    assert "hypothesis" in err


def test_property_all_skips_ssp_in_band(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["decide", "--format", "json", "-"],
        stdin=FIVE_JSON,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert {v["property"] for v in payload["verdicts"]} == {"SP", "WSP"}
    assert payload["extra"]["skipped"][0]["property"] == "SSP"


def test_verify_golden_exit_zero(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["verify", "--format", "json", "-"],
        stdin=M_JSON,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["extra"]["agreement"] is True
    routes = payload["extra"]["routes"]
    assert routes["SP"] == {"theorem": False, "oracle": False, "scan": False}


def test_unverifiable_certificate_exits_four(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_verdict", lambda ws, v: ["forced failure"])
    code, out, err = run_cli(
        capsys, ["decide", "-"], stdin=M_JSON, monkeypatch=monkeypatch
    )
    assert code == 4
    assert "re-verification" in err
    assert "verified: NO" in out


def _fail_wsp_only(ws, verdict):
    return ["forced failure"] if verdict.property_name == "WSP" else []


def test_run_command_returns_a_verified_report(monkeypatch):
    monkeypatch.setattr(cli, "check_verdict", _fail_wsp_only)
    args = cli._build_parser().parse_args(["decide", "-"])
    report = cli.run_command("decide", cli.Instance("weights", M_WEIGHTS), args)
    assert report.verified == [True, False, True]
    assert report.extra["verification_failures"] == [
        {"property": "WSP", "mode": "affine", "problems": ["forced failure"]}]


def test_batch_lines_failing_re_verification_exit_four(capsys, monkeypatch):
    monkeypatch.setattr(cli, "check_verdict", _fail_wsp_only)
    code, out, err = run_cli(capsys, ["decide", "--batch", "--format", "json", "-"],
                             stdin=M_JSON + "\n" + M_JSON + "\n", monkeypatch=monkeypatch)
    records = [json.loads(line) for line in out.splitlines()]
    assert code == 4 and len(records) == 2
    assert [[v["verified"] for v in r["verdicts"]] for r in records] == [[True, False, True]] * 2
    assert err == ("line 1: error: a certificate failed re-verification\n"
                   "line 2: error: a certificate failed re-verification\n")


# x^201 and x^1234567890 pass the degree guard's limit; "x\udcff*y" is
# what a command-line byte that is not UTF-8 reads as.
FORMS = ["x*y^3 - x^4", "x^201", "x*", "", "1/0*x", "x^2*y - x", "x\udcff*y", "x^1234567890"]


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("form", FORMS)
def test_binary_form_flag_reads_as_a_json_instance(capsys, monkeypatch, form, fmt):
    flag = run_cli(capsys, ["binary", "--form", form, "--format", fmt])
    piped = run_cli(capsys, ["binary", "--format", fmt, "-"],
                    stdin=json.dumps({"form": form}), monkeypatch=monkeypatch)
    assert flag == piped


@pytest.mark.parametrize("form, holds", [
    ("x*y^3 - x^4", True), ("x^2*y^2", False), ("y^5", False), ("x^3*y - 2*x^2*y^2", True),
])
def test_binary_decomposes_each_form_once(capsys, monkeypatch, form, holds):
    """One ``binary`` call computes one squarefree decomposition, and
    reads its verdict off it."""
    original = binary_forms.squarefree_multiplicity_parts
    calls = []

    def counted(f):
        calls.append(f)
        return original(f)

    for module in [m for name, m in sys.modules.items() if name.startswith("torsep.")]:
        if getattr(module, "squarefree_multiplicity_parts", None) is original:
            monkeypatch.setattr(module, "squarefree_multiplicity_parts", counted)
    code, out, err = run_cli(capsys, ["binary", "--form", form, "--format", "json"])
    assert (code, err) == (0, "")
    assert len(calls) == 1
    assert json.loads(out)["extra"]["separation_property"] is holds


def test_ideal_command(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["ideal", "--format", "json", "-"],
        stdin=FIVE_JSON,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    texts = [b["text"] for b in payload["extra"]["binomials"]]
    assert "x1^3*x3 - x2*x5^2" in texts
    assert payload["extra"]["spans_relation_lattice"]


def test_strata_and_chpairs_commands(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys,
        ["strata", "--format", "json", "-"],
        stdin=M_JSON,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    payload = json.loads(out)
    assert [s["indices"] for s in payload["extra"]["strata"]] == [[], [1], [2], [0, 1, 2]]

    code, out, _ = run_cli(
        capsys,
        ["chpairs", "--format", "json", "-"],
        stdin=M_JSON,
        monkeypatch=monkeypatch,
    )
    payload = json.loads(out)
    assert [1, 0] in payload["extra"]["pairs"]
    assert not payload["extra"]["diagonal_only"]


def test_chpairs_answers_past_the_face_guard(capsys, monkeypatch):
    """``chpairs`` reads the minimal faces: 16 homogenized weights in Z^9,
    whose 9,678 faces pass the lattice's guard of 4,096 (``MAX_FACES``),
    get the lattice's pairs."""
    rng = random.Random(1)
    ws = homogenize(WeightSystem(8, tuple(tuple(rng.randint(-3, 3) for _ in range(8))
                                          for _ in range(16))))
    code, out, err = run_cli(capsys, ["chpairs", "--format", "json", "-"],
                             stdin=json.dumps({"weights": [list(w) for w in ws.weights]}),
                             monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["options"] == {}
    assert report["extra"]["pairs"] == [list(p) for p in reference_characteristic_pairs(ws)]


def test_binary_command_with_flag(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["binary", "--form", "x*y^3", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["extra"]["separation_property"] is True
    assert {p["multiplicity"] for p in payload["extra"]["parts"]} == {1, 3}


def test_binary_command_rejects_weights(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys, ["binary", "-"], stdin=M_JSON, monkeypatch=monkeypatch
    )
    assert code == 2


def test_batch_mode_preserves_order(capsys, monkeypatch):
    lines = "\n".join(
        [
            '{"d":1,"weights":[[1]],"label":"first"}',
            '{"d":1,"weights":[[1],[-1]],"label":"second"}',
        ]
    )
    code, out, _ = run_cli(
        capsys,
        ["decide", "--format", "json", "--batch", "-"],
        stdin=lines,
        monkeypatch=monkeypatch,
    )
    assert code == 0
    reports = [json.loads(ln) for ln in out.splitlines()]
    assert [r["instance"]["label"] for r in reports] == ["first", "second"]


def test_batch_mode_reports_per_line_errors(capsys, monkeypatch):
    lines = "garbage\n" + M_JSON
    code, out, err = run_cli(
        capsys,
        ["decide", "--format", "json", "--batch", "-"],
        stdin=lines,
        monkeypatch=monkeypatch,
    )
    assert code == 2
    error, report = [json.loads(ln) for ln in out.splitlines()]
    assert error == {"line": 1, "error": err.split("line 1: error: ")[1].rstrip("\n"),
                     "exit_class": 2}
    assert report["instance"]["label"] == "M"  # the good line still produced a report
    code, out, err = run_cli(capsys, ["decide", "--format", "json", "--batch", "-"],
                             stdin="{}\n[1, 2]\n", monkeypatch=monkeypatch)
    assert code == 2
    assert err.splitlines() == ["line 1: error: instance JSON needs 'weights', 'coeffs' or 'form'",
                                "line 2: error: instance JSON must be an object"]
    assert [json.loads(ln)["line"] for ln in out.splitlines()] == [1, 2]
    # Without --batch, a bracket starts no JSON instance: [1, 2] is read as text weights.
    code, out, err = run_cli(capsys, ["decide", "-"], stdin="[1, 2]\n", monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: line 1: '[1,' is not a decimal integer\n")


def test_batch_line_must_be_json(capsys, monkeypatch):
    good = '{"d":1,"weights":[[1]]}'
    lines = good + "\n\n\ngarbage here\n"
    code, out, err = run_cli(
        capsys, ["decide", "--batch", "-"], stdin=lines, monkeypatch=monkeypatch
    )
    assert code == 2
    assert err.startswith("line 4: error: not a JSON instance")
    assert "invalid literal" not in err
    _, alone, _ = run_cli(capsys, ["decide", "-"], stdin=good, monkeypatch=monkeypatch)
    assert out == alone


def test_batch_lines_end_at_newline_only(capsys, monkeypatch, tmp_path):
    """A label holding U+2028, a form-feed line, CRLF endings and a lone
    carriage return between JSON tokens leave every later line numbered
    as it stands in the input, read from standard input or a file."""
    lines = "\n".join(['{"d":1,\r"weights":[[1]],"label":"a\u2028b"}\r', "\x0c",
                       "garbage\r", FIVE_JSON + "\r"])
    path = tmp_path / "batch.jsonl"
    path.write_bytes(lines.encode())
    code, out, err = run_cli(capsys, ["decide", "--format", "json", "--batch", "-"],
                             stdin=lines, monkeypatch=monkeypatch)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith("line 3: error: not a JSON instance")
    first, error, last = [json.loads(ln) for ln in out.splitlines()]
    assert first["instance"]["weights"] == [[1]]
    assert first["instance"]["label"] == "a\u2028b"
    assert (error["line"], error["exit_class"]) == (3, 2)
    assert last["instance"]["weights"] == [[1, 0, 0], [1, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1]]
    assert run_cli(capsys, ["decide", "--format", "json", "--batch", str(path)]) == (
        code, out, err)


def test_a_leading_byte_order_mark_is_dropped(capsys, monkeypatch, tmp_path):
    """A JSON instance, a text instance and a 2-line batch stream, each
    led by a UTF-8 byte-order mark, read from standard input (as text or
    bytes) or a file, give the output and exit code they give without
    one (RFC 8259, Section 8.1).  A U+FEFF anywhere else is refused."""
    class BytesStdin:
        def __init__(self, data):
            self.buffer = io.BytesIO(data)

    for argv, text in ((["decide", "--format", "json", "-"], M_JSON),
                       (["decide", "-"], "2 3\n1 1\n2 0\n0 2\n"),
                       (["decide", "--format", "json", "--batch", "-"], M_JSON + "\n" + FIVE_JSON)):
        plain = run_cli(capsys, argv, stdin=text, monkeypatch=monkeypatch)
        assert plain[0] == 0 and plain[1]
        assert run_cli(capsys, argv, stdin="\ufeff" + text, monkeypatch=monkeypatch) == plain
        monkeypatch.setattr(sys, "stdin", BytesStdin(b"\xef\xbb\xbf" + text.encode()))
        assert run_cli(capsys, argv) == plain
        path = tmp_path / "bom.txt"
        path.write_text(text, encoding="utf-8-sig")
        assert run_cli(capsys, [*argv[:-1], str(path)]) == plain
    code, _, err = run_cli(capsys, ["decide", "-"], stdin="\ufeff\ufeff" + M_JSON,
                           monkeypatch=monkeypatch)
    assert (code, err.startswith("error: line 1: ")) == (2, True)
    code, out, err = run_cli(capsys, ["decide", "--format", "json", "--batch", "-"],
                             stdin="\ufeff" + M_JSON + "\n\ufeff" + FIVE_JSON,
                             monkeypatch=monkeypatch)
    assert (code, err.startswith("line 2: error: not a JSON instance")) == (2, True)
    assert [json.loads(ln).get("line") for ln in out.splitlines()] == [None, 2]


def test_batch_survives_malformed_instances(capsys, monkeypatch):
    lines = ('{"coeffs": [1, 2]}\n{"coeffs": ["x", 1]}\n{"coeffs": ["1/0", 1]}\n'
             '{"form": 5}\n{"coeffs": [1, 0, -1]}\n')
    code, out, err = run_cli(capsys, ["binary", "--format", "json", "--batch", "-"],
                             stdin=lines, monkeypatch=monkeypatch)
    assert code == 2
    assert [e.split(": ")[:2] for e in err.splitlines()] == [
        ["line 2", "error"], ["line 3", "error"], ["line 4", "error"]]
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [r.get("line") for r in records] == [None, 2, 3, 4, None]
    assert [records[0]["instance"]["coeffs"], records[4]["instance"]["coeffs"]] == [
        ["1", "2"], ["1", "0", "-1"]]
    # A numeral is ASCII digits: no other digit, exponent, blank, "_" or float.
    malformed = ['{"coeffs": ["\u0661", 1]}', '{"coeffs": ["1e1", 1]}', '{"coeffs": [" 2 ", 1]}',
                 '{"coeffs": ["1_0", 1]}', '{"coeffs": [1.5, 1]}',
                 '{"form": "\u0661*x*y - y^2"}', '{"form": "x\\n*y"}']
    code, out, err = run_cli(capsys, ["binary", "--format", "json", "--batch", "-"],
                             stdin="\n".join(malformed) + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert [e.split(": ")[:2] for e in err.splitlines()] == [
        [f"line {k}", "error"] for k in range(1, len(malformed) + 1)]
    assert [json.loads(ln)["line"] for ln in out.splitlines()] == list(
        range(1, len(malformed) + 1))
    code, out, err = run_cli(capsys, ["decide", "-"], stdin='{"d": true, "weights": [[1], [2]]}',
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == "error: 'd' must be a positive integer\n"


def test_batch_survives_unreadable_lines(capsys, tmp_path):
    """A byte that is not UTF-8, JSON nested past the recursion limit and
    an integer longer than the interpreter reads each fail their own line."""
    path = tmp_path / "batch.jsonl"
    path.write_bytes(b"\n".join([
        M_JSON.encode(),
        b'{"d": 1, "weights": [[1], [2]], "label": "\xff"}',
        b"[" * 200_000 + b"]" * 200_000,
        b'{"d": 1, "weights": [[' + b"7" * 5000 + b"]]}",
        FIVE_JSON.encode(),
    ]) + b"\n")
    code, out, err = run_cli(capsys, ["decide", "--format", "json", "--batch", str(path)])
    assert code == 2
    lines = err.splitlines()
    assert [e.split(": ")[:2] for e in lines] == [
        ["line 2", "error"], ["line 3", "error"], ["line 4", "error"]]
    assert lines[0] == "line 2: error: input is not valid UTF-8"
    assert lines[1].startswith("line 3: error: not a JSON instance: maximum recursion depth")
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [f"line {r['line']}: error: {r['error']}" for r in records[1:4]] == lines
    assert [r["instance"]["weights"] for r in (records[0], records[4])] == [
        [[1, 1], [2, 0], [0, 2]], [[1, 0, 0], [1, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1]]]
    path.write_bytes(b"1 2\n1\n\xfe2\n")
    code, out, err = run_cli(capsys, ["decide", str(path)])
    assert (code, out, err) == (2, "", "error: input is not valid UTF-8\n")


def test_batch_stdin_byte_not_utf8_fails_its_line_only():
    """Standard input is read as bytes, so under a strict UTF-8 stdin
    codec a byte that is not UTF-8 fails its own line and later lines
    still run, as for a file."""
    env = dict(subprocess_env(), PYTHONIOENCODING="utf-8:strict")
    stdin = b"\n".join([M_JSON.encode(), b'{"d": 1, "weights": [[1]], "label": "\xff"}',
                        FIVE_JSON.encode()]) + b"\n"
    done = subprocess.run([sys.executable, "-m", "torsep", "decide", "--format", "json",
                           "--batch", "-"], input=stdin, env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 2
    assert done.stderr.decode() == "line 2: error: input is not valid UTF-8\n"
    first, error, last = [json.loads(ln) for ln in done.stdout.decode().splitlines()]
    assert error == {"line": 2, "error": "input is not valid UTF-8", "exit_class": 2}
    assert [r["instance"]["weights"] for r in (first, last)] == [
        [[1, 1], [2, 0], [0, 2]], [[1, 0, 0], [1, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1]]]


def test_batch_json_constants_fail_their_line_only(capsys, monkeypatch):
    """``NaN``, ``Infinity`` and ``-Infinity`` are not JSON, so a label
    holding one fails its line and the later lines still run."""
    lines = "".join(f'{{"weights": [[1]], "label": {c}}}\n'
                    for c in ("NaN", "Infinity", "-Infinity")) + M_JSON + "\n"
    code, out, err = run_cli(capsys, ["decide", "--format", "json", "--batch", "-"],
                             stdin=lines, monkeypatch=monkeypatch)
    assert code == 2
    assert [e.split(": ")[:2] for e in err.splitlines()] == [
        ["line 1", "error"], ["line 2", "error"], ["line 3", "error"]]
    assert "Infinity is not a JSON value" in err.splitlines()[2]
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [r.get("line") for r in records] == [1, 2, 3, None]
    assert records[3]["instance"]["label"] == "M"
    code, out, err = run_cli(capsys, ["decide", "-"], stdin='{"weights": [[1]], "label": NaN}',
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")


def test_batch_lone_surrogate_label_fails_its_line_only():
    """The escape ``\\ud800`` decodes to a lone surrogate, which no UTF-8
    stdout can write: that line fails and the next still prints its text
    report."""
    env = dict(subprocess_env(), PYTHONIOENCODING="utf-8:strict")
    stdin = '{"weights": [[1]], "label": "\\ud800"}\n{"weights": [[2]]}\n'
    done = subprocess.run([sys.executable, "-m", "torsep", "decide", "--format", "text",
                           "--batch", "-"], input=stdin.encode(), env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 2
    err = done.stderr.decode().splitlines()
    assert len(err) == 1 and err[0].startswith("line 1: error: ")
    assert "instance: weights d=1 n=1: (2)" in done.stdout.decode()


def test_json_batch_prints_one_line_per_nonblank_input_line():
    """Under ``--batch --format json`` each nonblank input line prints one
    stdout line, a report or an error record naming its line, in input
    order; the stderr messages and the exit code are unchanged."""
    env = dict(subprocess_env(), PYTHONIOENCODING="utf-8:strict")
    stdin = b"\n".join([M_JSON.encode(), b"garbage", b'{"weights": [[1]], "label": NaN}',
                        b'{"weights": [[1]], "label": "\\ud800"}',
                        b'{"weights": [[1]], "label": "\xff"}', b"  ", FIVE_JSON.encode()])
    done = subprocess.run([sys.executable, "-m", "torsep", "decide", "--format", "json",
                           "--batch", "-"], input=stdin, env=env, capture_output=True,
                          timeout=120)
    err = done.stderr.decode()
    assert done.returncode == 2 and "Traceback" not in err
    out = done.stdout.decode()
    assert out.isascii() and out.endswith("\n")
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [r.get("line") for r in records] == [None, 2, 3, 4, 5, None]
    assert [r["instance"]["weights"] for r in (records[0], records[5])] == [
        [[1, 1], [2, 0], [0, 2]], [[1, 0, 0], [1, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1]]]
    assert [f"line {r['line']}: error: {r['error']}" for r in records[1:5]] == err.splitlines()
    assert all(r["exit_class"] == 2 for r in records[1:5])


def test_report_integer_past_the_digit_limit_is_a_guard_error(capsys, tmp_path):
    """SP fails on (B, 1), (1, B), (2, 3) with B = 10^2200 + 7: (2, 3) is in
    the cone of the others, with coefficients whose denominators have
    about 4,400 digits, more than the interpreter writes; that line fails
    with exit 2 and the next one still runs."""
    big = 10 ** 2200 + 7
    path = tmp_path / "batch.jsonl"
    path.write_text(json.dumps({"weights": [[big, 1], [1, big], [2, 3]]})
                    + "\n" + M_JSON + "\n")
    limit = sys.get_int_max_str_digits()
    for fmt in ("json", "text"):
        code, out, err = run_cli(capsys, ["decide", "--property", "sp", "--format", fmt,
                                          "--batch", str(path)])
        assert code == 2
        assert err == (f"line 1: error: report holds an integer of more than {limit} "
                       "digits, the interpreter's limit for writing one\n")
        if fmt == "json":
            error, report = [json.loads(ln) for ln in out.splitlines()]
            assert (error["line"], error["exit_class"]) == (1, 2)
            assert report["instance"]["label"] == "M"
        else:
            assert out.count("instance: ") == 1 and "label: M" in out


def test_command_table_builds_each_subparser():
    """Each subcommand takes the four common arguments and then its own
    ``_COMMANDS`` options, and its report echoes only options it takes."""
    parser = cli._build_parser()
    for name, command in cli._COMMANDS.items():
        dests = list(vars(parser.parse_args([name])))
        own = [flag.removeprefix("--").replace("-", "_") for flag, _ in command.options]
        assert dests == ["command", "input", "format", "timing", "batch", *own], name
        assert set(command.echoed) <= set(own), name


@pytest.mark.parametrize("argv", [
    ["decide", "--seed", "3", "-"],
    ["strata", "--seed", "3", "-"],
    ["binary", "--max-n", "5", "-"],
    ["decide", "--max-n", "5", "-"],
    ["chpairs", "--max-n", "5", "-"],
    ["verify", "--seed", "3", "-"],
    ["verify", "--trials", "20", "-"],
    ["verify", "--prime", "10007", "-"],
    *[[command, "--max-n", "5", "-"] for command in ("oracle", "verify", "ideal", "strata")],
])
def test_options_only_where_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_help_lists_no_sampling_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert not [flag for flag in ("--seed", "--trials", "--prime") if flag in out]


def test_verify_reports_are_identical(capsys, monkeypatch):
    code1, out1, _ = run_cli(capsys, ["verify", "--format", "json", "-"], stdin=M_JSON,
                             monkeypatch=monkeypatch)
    code2, out2, _ = run_cli(capsys, ["verify", "--format", "json", "-"], stdin=M_JSON,
                             monkeypatch=monkeypatch)
    assert code1 == code2 == 0
    assert out1 == out2


def test_non_integer_seed_environment(capsys, monkeypatch):
    """``TORSEP_SEED`` is not read: verify's report is the same with it
    unset or set to anything, and its ``seed`` is null."""
    monkeypatch.delenv("TORSEP_SEED", raising=False)
    unset = run_cli(capsys, ["verify", "--format", "json", "-"], stdin=M_JSON,
                    monkeypatch=monkeypatch)
    assert unset[0] == 0 and json.loads(unset[1])["seed"] is None
    for value in ("abc", "\u0661"):
        monkeypatch.setenv("TORSEP_SEED", value)
        assert run_cli(capsys, ["verify", "--format", "json", "-"], stdin=M_JSON,
                       monkeypatch=monkeypatch) == unset


def test_binary_form_with_batch_is_an_input_error(capsys, monkeypatch):
    lines = '{"form": "x*y^3"}\n{"form": "x^4 - y^4"}\n'
    code, out, err = run_cli(
        capsys, ["binary", "--form", "x^2*y^2", "--batch", "-"],
        stdin=lines, monkeypatch=monkeypatch,
    )
    assert (code, out) == (2, "")
    assert err == "error: --form cannot be combined with --batch\n"


def test_parser_is_built_once_and_survives_exits(capsys, monkeypatch, tmp_path):
    """Many calls share one parser and parse each distinct argv once; a
    usage error and ``--help`` leave both as they were and exit on every
    repeat, so a later call reports what a fresh process does."""
    built, parsed = [], []
    init, parse_args = argparse.ArgumentParser.__init__, argparse.ArgumentParser.parse_args

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    def counting_parse_args(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", counting_parse_args)
    monkeypatch.delenv("TORSEP_SEED", raising=False)
    argv, other = ["verify", "--format", "json", "-"], ["decide", "--format", "json", "-"]
    cli._build_parser.cache_clear()
    cli._parse.cache_clear()
    try:
        for _ in range(4):
            for args in (argv, other):
                assert run_cli(capsys, args, stdin=M_JSON, monkeypatch=monkeypatch)[0] == 0
        assert parsed == ["torsep"] * 2
        for bad, status in ((["verify", "--seed", "x", "-"], 2), (["decide", "--help"], 0)):
            printed = []
            for _ in range(3):
                with pytest.raises(SystemExit) as exc:
                    cli.main(bad)
                assert exc.value.code == status
                printed.append(capsys.readouterr())
            assert printed[0] == printed[1] == printed[2] and any(printed[0])
        here = run_cli(capsys, argv, stdin=FIVE_JSON, monkeypatch=monkeypatch)
        assert built.count("torsep") == 1
        # A route that changes its arguments changes no later call's.
        seen, route = [], cli._COMMANDS["decide"].route

        def mutating(ws, args):
            seen.append(dict(vars(args)))
            args.mode, args.property, args.format = "projective", "sp", "text"
            return route(ws, args)

        monkeypatch.setitem(cli._COMMANDS, "decide",
                            cli._COMMANDS["decide"]._replace(route=mutating))
        for _ in range(3):
            assert run_cli(capsys, other, stdin=M_JSON, monkeypatch=monkeypatch)[0] == 0
        assert seen == [{"command": "decide", "input": "-", "format": "json", "timing": False,
                         "batch": False, "mode": "affine", "property": "all"}] * 3
        # More distinct argvs than the bound leave the cache at its bound.
        bound = cli._parse.cache_info().maxsize
        for k in range(bound + 4):
            path = tmp_path / f"{k}.json"
            path.write_text(M_JSON, encoding="utf-8")
            assert run_cli(capsys, ["chpairs", str(path)])[0] == 0
        assert cli._parse.cache_info().currsize == bound
    finally:
        cli._build_parser.cache_clear()
        cli._parse.cache_clear()
    env = subprocess_env()
    fresh = subprocess.run([sys.executable, "-m", "torsep", *argv], input=FIVE_JSON,
                           env=env, capture_output=True, text=True, timeout=120)
    assert here == (fresh.returncode, fresh.stdout, fresh.stderr)


def test_weight_commands_reject_binary_instances(capsys, monkeypatch):
    code, _, err = run_cli(
        capsys,
        ["decide", "-"],
        stdin='{"form": "x*y^3"}',
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "weight system" in err


ORTHANT_13 = json.dumps({"d": 13, "weights": [[int(i == j) for j in range(13)]
                                              for i in range(13)]})
WIDE_13 = json.dumps({"d": 2, "weights": [[1, k] for k in range(13)]})
_FACE_GUARD = "face enumeration exceeds the guard of 4096 faces (MAX_FACES)"


def test_resource_guard_exit_code(capsys, monkeypatch):
    # 2^13 faces exceed the face guard; 13 weights with 4 faces do not.
    code, _, err = run_cli(capsys, ["strata", "-"], stdin=ORTHANT_13, monkeypatch=monkeypatch)
    assert (code, err) == (2, f"error: {_FACE_GUARD}\n")
    code, out, _ = run_cli(capsys, ["strata", "--format", "json", "-"], stdin=WIDE_13,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["extra"]["count"] == 4


def test_decide_trips_no_guard(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, ["decide", "--format", "json", "-"], stdin=WIDE_13,
                           monkeypatch=monkeypatch)
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert [v["property"] for v in verdicts] == ["SP", "WSP", "SSP"]
    assert verdicts[2]["certificate"]["kind"] == "kernel-witness"
    assert all(v["verified"] is True for v in verdicts)


@pytest.mark.parametrize("seed", [0, 1])
def test_wide_projective_decide_finishes(seed):
    """Projective ``decide --property all`` on 60 weights in Z^6 takes its
    SSP relation from the kernel of the homogenized weights, so it runs
    in a subprocess under a 30 s timeout (it takes about 2 s); every
    verdict re-verifies."""
    ws = random_weights(random.Random(seed), 6, 60, 3)
    done = subprocess.run(
        [sys.executable, "-m", "torsep", "decide", "--mode", "projective", "--property", "all",
         "--format", "json", "-"], input=json.dumps({"weights": [list(w) for w in ws.weights]}),
        env=subprocess_env(), capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr) == (0, "")
    verdicts = json.loads(done.stdout)["verdicts"]
    assert [v["property"] for v in verdicts] == ["SP", "WSP", "SSP"]
    assert all(v["verified"] is True for v in verdicts)


def test_raised_guard_holds_through_reverification(capsys, monkeypatch):
    """With ``MAX_FACES`` raised to 2^13 the oracle answers on the orthant
    of Z^13 and both ``strata-*`` certificates re-verify; at 4,096 it is
    refused."""
    argv = ["oracle", "--format", "json", "-"]
    monkeypatch.setattr(cones, "MAX_FACES", 2**13)
    code, out, err = run_cli(capsys, argv, stdin=ORTHANT_13, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    verdicts = json.loads(out)["verdicts"]
    assert [v["certificate"]["kind"] for v in verdicts] == ["strata-separation",
                                                           "strata-distinguished"]
    assert all(v["holds"] and v["verified"] is True for v in verdicts)
    monkeypatch.setattr(cones, "MAX_FACES", 2**12)
    code, out, err = run_cli(capsys, argv, stdin=ORTHANT_13, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: {_FACE_GUARD}\n")


def test_text_label_cannot_forge_report_lines(capsys, monkeypatch):
    """A label's line breaks and other unprintable characters print as
    escapes on the instance line, so the label adds no line of its own;
    a label that is not a string fails its line."""
    stdin = ('{"weights":[[1],[2]],"label":"x\\nSP (affine): HOLDS\\u2028\\r\\u001b"}\n'
             '{"weights":[[1]],"label":5}\n{"weights":[[1]],"label":["a"]}\n'
             '{"weights":[[1]],"label":null}\n')
    code, out, err = run_cli(capsys, ["decide", "--property", "sp", "--format", "text",
                                      "--batch", "-"], stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2
    lines = out.splitlines()
    assert [ln for ln in lines if ln.startswith("SP (affine)")] == [
        "SP (affine): FAILS", "SP (affine): HOLDS"]
    assert r"(1) (2)  label: x\nSP (affine): HOLDS\u2028\r\x1b" in lines[2]
    assert err.splitlines() == ["line 2: error: 'label' must be a string, got int",
                                "line 3: error: 'label' must be a string, got list"]


@pytest.mark.parametrize("command", ["binary", "decide"])
def test_ambiguous_instance_is_an_input_error(capsys, monkeypatch, command):
    """An instance naming both a form and weights is refused, not read
    as the weights."""
    code, out, err = run_cli(capsys, [command, "-"], stdin='{"form":"x*y","weights":[[1]]}',
                             monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == ("error: instance JSON names more than one of 'weights', 'coeffs' "
                   "and 'form'\n")


def test_binary_text_report_shows_the_label(capsys, monkeypatch):
    stdin = '{"form":"x*y^2","label":"mine"}\n{"form":"x*y^2","label":"a\\nb"}\n'
    code, out, _ = run_cli(capsys, ["binary", "--batch", "-"], stdin=stdin,
                           monkeypatch=monkeypatch)
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("instance: ")] == [
        "instance: binary form x*y^2  label: mine",
        r"instance: binary form x*y^2  label: a\nb"]


@pytest.mark.parametrize("argv, stdin, message", [
    (["--form", "x^5000*y"], None, "form has degree 5001, above the guard of 200"),
    (["-"], '{"form": "x^150*y^51 + y^201"}', "form has degree 201, above the guard of 200"),
    (["--form", "x^" + "9" * 5000], None, "cannot parse factor 'x^" + "9" * 5000 + "'"),
    (["--form", "x^2 -"], None, "dangling sign in form at position 4"),
], ids=["form", "json-form", "exponent-digits", "dangling-sign"])
def test_binary_form_degree_guard(capsys, monkeypatch, argv, stdin, message):
    """A parsed form of degree above 200 is refused before its coefficient
    list is built; an exponent of more than nine digits, or a sign with no
    term after it, does not parse."""
    code, out, err = run_cli(capsys, ["binary", *argv], stdin=stdin, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, _ = run_cli(capsys, ["binary", "--form", "x^199*y", "--format", "json"])
    assert code == 0 and json.loads(out)["extra"]["separation_property"] is True


def test_form_numerals_fail_their_line_only(capsys, monkeypatch):
    """A coefficient numeral longer than the interpreter reads, or one
    with a zero denominator, is an input error of its own line: exit 2,
    no traceback, and later lines still run."""
    stdin = '{"form": "' + "9" * 5000 + '*x"}\n{"form": "1/0*x"}\n{"form": "x*y"}\n'
    code, out, err = run_cli(capsys, ["binary", "--format", "json", "--batch", "-"],
                             stdin=stdin, monkeypatch=monkeypatch)
    assert code == 2
    assert err.splitlines() == [
        "line 1: error: coefficient numeral of 5000 characters is longer than the "
        "interpreter reads",
        "line 2: error: coefficient '1/0' has a zero denominator"]
    records = [json.loads(ln) for ln in out.splitlines()]
    assert [r.get("line") for r in records] == [1, 2, None]
    assert records[2]["extra"]["separation_property"] is True
    code, out, err = run_cli(capsys, ["binary", "--form", "1/0*x"])
    assert (code, out, err) == (2, "", "error: coefficient '1/0' has a zero denominator\n")


@pytest.mark.parametrize("degree", [200, 201])
def test_json_coeffs_degree_guard(capsys, monkeypatch, degree):
    """A JSON coefficient list takes the degree guard of a form text:
    x^d + y^d is refused at degree 201 and accepted at 200."""
    stdin = json.dumps({"coeffs": [1] + [0] * (degree - 1) + [1]})
    code, out, err = run_cli(capsys, ["binary", "--format", "json", "-"],
                             stdin=stdin, monkeypatch=monkeypatch)
    if degree > 200:
        assert (code, out, err) == (2, "", "error: form has degree 201, above the guard of 200\n")
    else:
        assert code == 0 and json.loads(out)["extra"]["separation_property"] is True


def test_json_coeffs_must_be_a_list(capsys, monkeypatch):
    code, out, err = run_cli(capsys, ["binary", "-"], stdin='{"coeffs": 5}',
                             monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", "error: 'coeffs' must be a list\n")


_GRAVER_GUARD = ("Graver basis completion over 13 weights exceeds the guard of 12 weights "
                 "(MAX_WEIGHTS)")


@pytest.mark.parametrize("command, instance", [
    # The square pyramid and nine copies of its axis, inside it: ten faces.
    ("ideal", json.dumps({"weights": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]
                          + [[0, 0, 1]] * 9})),
    # Two faces, so the face guard passes and the Graver guard trips.
    ("verify", json.dumps({"weights": [[1]] * 13})),
], ids=["ideal-pyramid", "verify-line"])
def test_graver_weight_guard_exits_two(capsys, monkeypatch, command, instance):
    """Thirteen weights are refused by the Graver guard before the
    relation lattice is formed: exit 2 with its message, and under
    ``--batch --format json`` the line prints its error record."""
    def unreachable(vectors):
        raise AssertionError("kernel_lattice ran past the weight guard")

    monkeypatch.setattr(ideals, "kernel_lattice", unreachable)
    code, out, err = run_cli(capsys, [command, "-"], stdin=instance, monkeypatch=monkeypatch)
    assert (code, out, err) == (2, "", f"error: {_GRAVER_GUARD}\n")
    code, out, err = run_cli(capsys, [command, "--batch", "--format", "json", "-"],
                             stdin=instance + "\n", monkeypatch=monkeypatch)
    assert code == 2
    assert err == f"line 1: error: {_GRAVER_GUARD}\n"
    assert json.loads(out) == {"line": 1, "error": _GRAVER_GUARD, "exit_class": 2}


def _catalog():
    """The workloads of ``perfbench/catalog.json``: name -> its entries."""
    return json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                       / "catalog.json").read_text(encoding="utf-8"))["workloads"]


def _instance_line(entry):
    return json.dumps({"d": entry["d"], "weights": entry["weights"]}) + "\n"


def _catalog_stream(skip=()):
    """The instances of ``perfbench/catalog.json`` (260), but for the
    workloads named in ``skip``, as one batch stream."""
    return "".join(_instance_line(e) for name, entries in _catalog().items()
                   if name not in skip for e in entries)


def test_per_call_reports_match_the_batch_reports(capsys, monkeypatch):
    """The decide-wide and verify-small catalog instances, one ``main``
    call each with the entry's own argv, decide and verify alternating as
    the benchmark's closed-loop worker calls them, print what a
    ``--batch`` run of the same argv prints for each: no state of one
    call, parsed arguments included, reaches the next."""
    workloads = _catalog()
    entries = [e for pair in zip(workloads["decide-wide"], workloads["verify-small"])
               for e in pair] + workloads["verify-small"][len(workloads["decide-wide"]):]
    per_call, by_argv = [], {}
    for entry in entries:
        argv = [*entry["argv"], "--format", "json", "-"]
        code, out, err = run_cli(capsys, argv, stdin=_instance_line(entry),
                                 monkeypatch=monkeypatch)
        assert (code, err) == (0, ""), entry
        per_call.append((tuple(argv), out))
        by_argv.setdefault(tuple(argv), []).append(_instance_line(entry))
    assert len(by_argv) == 3
    batch = {}
    for argv, lines in by_argv.items():
        code, out, err = run_cli(capsys, [*argv[:-1], "--batch", "-"], stdin="".join(lines),
                                 monkeypatch=monkeypatch)
        assert (code, err) == (0, "")
        batch[argv] = iter(out.splitlines(keepends=True))
    assert all(out == next(batch[argv]) for argv, out in per_call)
    assert all(next(lines, None) is None for lines in batch.values())


def test_no_verdict_path_calls_lp_feasible(capsys, monkeypatch):
    """With ``lp_feasible`` refused, decide, verify and oracle in both
    modes still exit 0 with every certificate verified, on the golden
    systems, seeded fuzz draws and the benchmark catalog."""
    def refuse(*args, **kwargs):
        raise AssertionError("a verdict path called lp_feasible")

    monkeypatch.setattr(torsep.lp, "lp_feasible", refuse)
    monkeypatch.setattr(torsep.cones, "lp_feasible", refuse)
    rng = random.Random(91)
    systems = [M_WEIGHTS, N_WEIGHTS, FIVE_WEIGHTS, QUARTET_WEIGHTS]
    systems += [fuzz_weights(rng, rng.randint(1, 3), rng.randint(2, 5), 2) for _ in range(40)]
    drawn = "".join(json.dumps({"d": ws.dim, "weights": ws.weights}) + "\n" for ws in systems)
    # verify skips faces-wide, whose Graver completions take seconds.
    for argv, skip in ((["decide", "--property", "all"], ()), (["verify"], ("faces-wide",)),
                       (["oracle"], ())):
        stream = drawn + _catalog_stream(skip)
        for mode in ("affine", "projective"):
            code, out, err = run_cli(capsys, [*argv, "--mode", mode, "--format", "json",
                                              "--batch", "-"], stdin=stream, monkeypatch=monkeypatch)
            assert (code, err) == (0, ""), (argv, mode, err)
            records = [json.loads(line) for line in out.splitlines()]
            assert len(records) == stream.count("\n")
            assert all(v["verified"] for r in records for v in r["verdicts"]), (argv, mode)


# sha256 of decide --property all and oracle (affine and projective),
# strata and chpairs, in JSON and text, over the benchmark catalog.
CATALOG_OUTPUT_DIGEST = "928fee7686b332e98d500a36f39d58491f57be2bc966f261a6269d8309a2676b"


def test_catalog_output_bytes_are_pinned(capsys, monkeypatch):
    """The 260 instances of ``perfbench/catalog.json``, run in process as
    one ``--batch`` stream per command and format, give the pinned
    stdout, stderr and exit codes."""
    stream = _catalog_stream()
    runs = [[*command, "--mode", mode] for mode in ("affine", "projective")
            for command in (["decide", "--property", "all"], ["oracle"])]
    digest = hashlib.sha256()
    for argv in runs + [["strata"], ["chpairs"]]:
        for fmt in ("json", "text"):
            code, out, err = run_cli(capsys, [*argv, "--format", fmt, "--batch", "-"],
                                     stdin=stream, monkeypatch=monkeypatch)
            digest.update(json.dumps([argv, fmt, code, out, err]).encode())
    assert digest.hexdigest() == CATALOG_OUTPUT_DIGEST, (
        "catalog output changed; if the change is intended, record it and the new "
        f"digest {digest.hexdigest()} in CHANGES.md")


@pytest.mark.parametrize("mode", ["affine", "projective"])
def test_verify_scans_the_facets_for_an_ssp_witness_once(capsys, monkeypatch, mode):
    """One verify of the square pyramid runs ``ssp_coordinate_witness``
    once: an affine SSP failure's witness is its ``kernel-witness`` pair,
    which the decider's own scan found."""
    original = sys.modules["torsep.strata"].ssp_coordinate_witness
    calls = []

    def counted(ws):
        calls.append(ws)
        return original(ws)

    for module in [m for name, m in sys.modules.items() if name.startswith("torsep.")]:
        if getattr(module, "ssp_coordinate_witness", None) is original:
            monkeypatch.setattr(module, "ssp_coordinate_witness", counted)
    pyramid = '{"weights": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}'
    code, out, err = run_cli(capsys, ["verify", "--mode", mode, "--format", "json", "-"],
                             stdin=pyramid, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    extra = json.loads(out)["extra"]
    assert extra["agreement"] and extra["routes"]["SSP"]["witness_oracle"] is False
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["affine", "projective"])
def test_verify_draws_no_points_for_its_relations(capsys, monkeypatch, mode):
    """verify checks vanishing exactly, on the relations themselves, so
    it draws no random point; on the square pyramid nothing fails."""
    monkeypatch.setattr(random, "Random", None)  # a draw would raise
    pyramid = '{"weights": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}'
    code, out, err = run_cli(capsys, ["verify", "--mode", mode, "--format", "json", "-"],
                             stdin=pyramid, monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert json.loads(out)["extra"]["vanishing"] == {"failures": 0}


def test_verify_counts_a_binomial_that_is_no_relation(capsys, monkeypatch):
    """A binomial x_1 - 1 slipped into the generating system is not a
    weight relation: verify counts it once, so agreement is false and
    the run exits 4."""
    original = cli.binomial_generators
    monkeypatch.setattr(cli, "binomial_generators", lambda ws: (
        *original(ws), Binomial.from_vector([1] + [0] * (ws.n - 1))))
    pyramid = '{"weights": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}'
    code, out, err = run_cli(capsys, ["verify", "--format", "json", "-"], stdin=pyramid,
                             monkeypatch=monkeypatch)
    assert (code, err) == (4, "error: independent decision routes disagree\n")
    extra = json.loads(out)["extra"]
    assert extra["vanishing"] == {"failures": 1}
    assert extra["agreement"] is False


def test_facet_scan_disagreeing_with_the_rank_test_is_an_internal_error(capsys, monkeypatch):
    """Dependent weights whose facet scan finds no SSP witness pair: the
    decider raises InternalError, which exits 4, and a JSON batch line
    prints its error record in place of the report."""
    monkeypatch.setattr(separation, "ssp_coordinate_witness", lambda ws: None)
    pyramid = '{"weights": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}'
    with pytest.raises(InternalError, match="the rank test and the facet scan disagree"):
        separation.decide_affine_ssp(cli.parse_instance(pyramid).payload)
    code, out, err = run_cli(capsys, ["decide", "--property", "ssp", "-"], stdin=pyramid,
                             monkeypatch=monkeypatch)
    assert (code, out) == (4, "") and err.startswith("internal error: ")
    code, out, err = run_cli(capsys, ["decide", "--batch", "--format", "json", "-"],
                             stdin=pyramid + "\n", monkeypatch=monkeypatch)
    assert code == 4 and err.startswith("line 1: internal error: ")
    record = json.loads(out)
    assert (record["line"], record["exit_class"]) == (1, 4)


def test_sp_failure_without_a_certificate_is_an_internal_error(capsys, monkeypatch):
    """A failing SP position whose weight is in no cone of its minimal face,
    on a pointed cone (so there is no line relation either), has no
    certificate: the decider raises InternalError, which exits 4."""
    monkeypatch.setattr(separation, "face_combination", lambda ws, target, indices: None)
    with pytest.raises(InternalError, match="^SP failure expected but no certificate found$"):
        separation.decide_affine_sp(M_WEIGHTS)
    code, out, err = run_cli(capsys, ["decide", "--property", "sp", "-"], stdin=M_JSON,
                             monkeypatch=monkeypatch)
    assert (code, out) == (4, "")
    assert err == "internal error: SP failure expected but no certificate found\n"


def test_verify_routes_that_disagree_exit_four(capsys, monkeypatch):
    """An oracle WSP verdict flipped on the square pyramid disagrees with
    the theorem route: verify still prints its report, with agreement
    false, and exits 4; each batch line reports its own disagreement."""
    original = cli.oracle_wsp

    def flipped(ws):
        verdict = original(ws)
        return verdict._replace(holds=not verdict.holds)

    monkeypatch.setattr(cli, "oracle_wsp", flipped)
    pyramid = '{"weights": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}'
    code, out, err = run_cli(capsys, ["verify", "--format", "json", "-"], stdin=pyramid,
                             monkeypatch=monkeypatch)
    assert (code, err) == (4, "error: independent decision routes disagree\n")
    extra = json.loads(out)["extra"]
    assert extra["agreement"] is False
    assert extra["routes"]["WSP"] == {"theorem": True, "oracle": False}
    code, out, err = run_cli(capsys, ["verify", "--batch", "--format", "json", "-"],
                             stdin=pyramid + "\n" + pyramid + "\n", monkeypatch=monkeypatch)
    assert code == 4
    assert err.splitlines() == [f"line {k}: error: independent decision routes disagree"
                                for k in (1, 2)]
    reports = [json.loads(ln) for ln in out.splitlines()]
    assert [r["extra"]["agreement"] for r in reports] == [False, False]


# sha256 of verify (affine and projective) and ideal, in JSON and text,
# over the verify-small and decide-wide entries of the benchmark catalog.
VERIFY_OUTPUT_DIGEST = "8f746ff137586ec72ee9856063a8e58259132662989b011b155f2cf6fa16a402"


def test_verify_and_ideal_output_bytes_are_pinned(capsys, monkeypatch):
    """The verify-small and decide-wide instances of the benchmark
    catalog (190), run in process as one ``--batch`` stream per command
    and format, give the pinned stdout, stderr and exit codes.  The
    faces-wide entries are left out: their Graver completions take seconds."""
    monkeypatch.delenv("TORSEP_SEED", raising=False)
    stream = _catalog_stream(("faces-wide",))
    digest = hashlib.sha256()
    for argv in (["verify", "--mode", "affine"], ["verify", "--mode", "projective"], ["ideal"]):
        for fmt in ("json", "text"):
            code, out, err = run_cli(capsys, [*argv, "--format", fmt, "--batch", "-"],
                                     stdin=stream, monkeypatch=monkeypatch)
            digest.update(json.dumps([argv, fmt, code, out, err]).encode())
    assert digest.hexdigest() == VERIFY_OUTPUT_DIGEST, (
        "verify or ideal output changed; if the change is intended, record it and the new "
        f"digest {digest.hexdigest()} in CHANGES.md")


def test_batch_lines_leave_one_instance_in_the_cone_caches(capsys, monkeypatch):
    """Each instance runs on empty ``cones`` caches: after a three-line
    ``--batch`` no cache holds more entries than a single run of the last
    line leaves, and the output is that of the three single runs."""
    caches = (torsep.cones.facets, torsep.cones._zero_masks, torsep.cones._smallest_face_cached,
              torsep.cones.enumerate_faces, torsep.cones.homogenize)
    pyramid = '{"weights": [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]}'
    lines = [FIVE_JSON, M_JSON, pyramid]
    argv = ["verify", "--mode", "projective", "--format", "json", "-"]
    code, batch, _ = run_cli(capsys, [*argv, "--batch"], stdin="\n".join(lines) + "\n",
                             monkeypatch=monkeypatch)
    held = [cache.cache_info().currsize for cache in caches]
    singles = []
    for line in lines:
        clear_cone_caches()
        single_code, out, _ = run_cli(capsys, argv, stdin=line, monkeypatch=monkeypatch)
        assert single_code == 0
        singles.append(out)
    single = [cache.cache_info().currsize for cache in caches]
    assert code == 0 and batch == "".join(singles)
    assert all(h <= s for h, s in zip(held, single)), (held, single)
    assert min(single) >= 1
