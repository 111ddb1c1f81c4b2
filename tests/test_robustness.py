"""Invariants that must not depend on ``assert`` statements, on
well-formed certificates, or on the benchmark's tracer alone."""

import ast
import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from helpers import (
    clear_cone_caches,
    fuzz_oracle_verdicts,
    golden_verdicts,
    reference_check_verdict,
)
from torsep import cones
from torsep.cones import WeightSystem
from torsep.errors import HypothesisError, InputError, InternalError
from torsep.reports import Instance, Report, emit_report, report_from_json
from torsep.separation import decide, decide_affine_sp
from torsep.strata import oracle_sp
from torsep.verdict import MODES, PROPERTIES, Verdict, vacuous
from torsep.verification import KINDS, check_verdict, verify_verdict

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# The full-rank certificate of the weights (1,0),(0,1).
_FULL_RANK = {"kind": "full-rank", "row_indices": (0, 1)}


def test_verdict_rejects_unknown_property_and_mode():
    with pytest.raises(InputError):
        Verdict("XX", "affine", True, {})
    with pytest.raises(InputError):
        Verdict("SP", "bogus", True, {})
    # A truthy string would re-verify as a holding verdict.
    with pytest.raises(InputError):
        Verdict("SSP", "affine", "false", _FULL_RANK)


def test_verdict_validation_survives_optimize_flag():
    code = (
        "from torsep.errors import InputError\n"
        "from torsep.verdict import Verdict\n"
        "for args in (('XX', 'bogus', True, {}),\n"
        f"             ('SSP', 'affine', 'false', {_FULL_RANK!r})):\n"
        "    try:\n"
        "        Verdict(*args)\n"
        "    except InputError:\n"
        "        print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=_env_with_src(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.split() == ["raised", "raised"]


def test_package_holds_no_assert_statements():
    offenders = []
    for path in sorted((SRC / "torsep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_package_imports_no_private_or_unused_names():
    """No module imports a ``_``-prefixed name from another torsep module,
    nor a name it never uses; a name listed in ``__all__`` counts as used."""
    offenders = []
    for path in sorted((SRC / "torsep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                inner = node.level > 0 or (node.module or "").startswith("torsep")
                for alias in node.names:
                    if inner and alias.name.startswith("_") and not alias.name.endswith("__"):
                        offenders.append(f"{path.name}: private {alias.name}")
                    if (alias.asname or alias.name) not in used:
                        offenders.append(f"{path.name}: unused {alias.name}")
            elif isinstance(node, ast.Import):
                offenders += [f"{path.name}: unused {alias.name}" for alias in node.names
                              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert offenders == []


def _referenced_names(node) -> set:
    """Names a statement reads: loaded names, attributes, imported names
    and whole string constants (``perfbench/layers.py`` names the
    functions it traces by strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)
    return names


def _defined_names(node) -> list:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_package_defines_no_unreferenced_names():
    """Every module-level function, class or constant of the package is
    referenced outside its own definition: in ``src/``, ``tests/``,
    ``demos/`` or ``perfbench/layers.py``."""
    paths = [*sorted(SRC.rglob("*.py")), *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "demos").glob("*.py")), ROOT / "perfbench" / "layers.py"]
    statements = [(path, node) for path in paths
                  for node in ast.parse(path.read_text(encoding="utf-8")).body]
    references = [(node, _referenced_names(node)) for _, node in statements]
    unreferenced = [
        f"{path.name}: {name}"
        for path, node in statements if path.parent == SRC / "torsep"
        for name in _defined_names(node) if not name.startswith("__")
        and not any(name in names for other, names in references if other is not node)
    ]
    assert unreferenced == []

def test_acceptance_suite_passes_under_optimize_flag():
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        cwd=ROOT, env=_env_with_src(), capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


@pytest.mark.parametrize("verdict", [
    Verdict("SSP", "affine", True,
            {"kind": "full-rank", "row_indices": (0, 5)}),
    Verdict("SSP", "affine", True, {"kind": "full-rank"}),
    Verdict("SP", "affine", False,
            {"kind": "generator-in-cone", "coefficients": [0, 1], "pair": (7, 0)}),
])
def test_malformed_certificate_is_a_problem_not_a_crash(verdict):
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    problems = check_verdict(ws, verdict)
    assert any(p.startswith("malformed certificate:") for p in problems)
    with pytest.raises(InternalError):
        verify_verdict(ws, verdict)


_PYRAMID_ROWS = [[1, 0, 1], [0, 1, 1], [-1, 0, 1], [0, -1, 1]]


# (weights, verdict builder, exact entry, inexact entry): each certificate
# checks out with the exact rational or int, and at the float (or bool)
# near it passes only in float arithmetic or under == (0.1 * 10 == 1.0,
# (1/3) * 3 == 1.0 and False == 0.0 == 0, although neither float is that
# rational and a row index is no float or bool).
_FLOAT_CASES = [
    ([[1], [10]], lambda x: Verdict("SP", "affine", False, {
        "kind": "generator-in-cone", "coefficients": [0, x], "pair": [1, 0]}),
     Fraction(1, 10), 0.1),
    ([[1], [-10]], lambda x: Verdict("WSP", "affine", False, {
        "kind": "line-in-cone", "relation": [1, x], "pair": [0, 1]}),
     Fraction(1, 10), 0.1),
    ([[10]], lambda x: Verdict("SSP", "affine", True, {
        "kind": "full-rank", "row_indices": [0], "cone_functional": [x]}),
     Fraction(1, 10), 0.1),
    ([[1, 0], [0, 3]], lambda x: Verdict("WSP", "affine", True, {
        "kind": "face-separation", "face_witnesses": [[0, x], [1, 0]]}),
     Fraction(1, 3), 1 / 3),
    ([[1]], lambda x: Verdict("SSP", "affine", True, {
        "kind": "full-rank", "row_indices": [x]}), 0, 0.0),
    ([[1]], lambda x: Verdict("SSP", "affine", True, {
        "kind": "full-rank", "row_indices": [x]}), 0, False),
]


@pytest.mark.parametrize("rows, build, exact, inexact", _FLOAT_CASES)
def test_a_float_in_a_certificate_is_malformed(rows, build, exact, inexact):
    """Checks run in exact arithmetic: a float entry in a certificate
    vector, or a float or bool where a certificate claims an int, is
    reported as malformed, never compared, also after a JSON round trip
    (which keeps a JSON number as a float and false as a bool)."""
    ws = WeightSystem.from_rows(rows)
    assert check_verdict(ws, build(exact)) == []
    verdict = build(inexact)
    payload = json.loads(emit_report(Report("decide", Instance("weights", ws), {}, [verdict]),
                                     "json"))
    for mutant in (verdict, report_from_json(payload).verdicts[0]):
        problems = check_verdict(ws, mutant)
        assert len(problems) == 1 and problems[0].startswith("malformed certificate:"), problems
        assert repr(inexact) in problems[0]


def test_traced_benchmark_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [f"torsep.{module}.{name}"
               for module, names in layers.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"torsep.{module}"),
                                       name, None))]
    assert missing == []


@pytest.mark.parametrize("certificate", [[0, 1], "full-rank", None, {}, {"kind": 3}])
def test_verdict_rejects_certificate_without_string_kind(certificate):
    with pytest.raises(InputError):
        Verdict("SSP", "affine", True, certificate)


def test_negative_row_index_is_reported():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    cert = {"kind": "full-rank", "row_indices": [0, -1]}
    assert check_verdict(ws, Verdict("SSP", "affine", True, cert))


def test_never_vanishing_index_is_tied_to_its_pair():
    """An SP ``line-in-cone`` or ``strata-missed-hyperplane`` certificate
    names the coordinate that never vanishes as the pair's first entry,
    and nowhere else.  On (1,0), (-1,0), (0,1), x1 and x2 never vanish
    and x3 does: a pair moved to start at x3 is refused, and one moved to
    start at x2 verifies, its text naming x2."""
    ws = WeightSystem.from_rows([[1, 0], [-1, 0], [0, 1]])
    line, missed = decide_affine_sp(ws), oracle_sp(ws)
    assert line.certificate == {"kind": "line-in-cone", "relation": (1, 1, 0), "pair": (0, 1)}
    assert missed.certificate == {"kind": "strata-missed-hyperplane", "pair": (0, 1)}
    for verdict in (line, missed):
        for pair in ((2, 0), (2, 1)):
            mutant = Verdict("SP", "affine", False, {**verdict.certificate, "pair": pair})
            assert check_verdict(ws, mutant), (verdict.kind, pair)
        moved = Verdict("SP", "affine", False, {**verdict.certificate, "pair": (1, 0)})
        assert check_verdict(ws, moved) == []
        text = emit_report(Report("decide", Instance("weights", ws), {}, [moved]), "text")
        assert "  witness pair: x2 never vanishes on the closure\n" in text


# Certificate fields whose leaves are positions: weights, except rows.
_INDEX_KEYS = {"pair", "face_indices", "stratum_indices", "strata", "row_indices"}


def _leaves(obj, path=()):
    """(path, value, nearest dict key) of every non-container leaf."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from _leaves(value, path + (k,))
    else:
        key = next((p for p in reversed(path) if isinstance(p, str)), None)
        yield path, obj, key


def _dicts(obj, path=()):
    if isinstance(obj, dict):
        yield path, obj
        for key, value in obj.items():
            yield from _dicts(value, path + (key,))
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from _dicts(value, path + (k,))


_DROP = object()


def _edit(obj, path, value):
    """A copy of ``obj`` with the leaf at ``path`` replaced, or removed
    from its dict when ``value`` is ``_DROP``."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        out = dict(obj)
        if value is _DROP and not rest:
            del out[head]
        else:
            out[head] = _edit(obj[head], rest, value)
        return out
    out = list(obj)
    out[head] = _edit(obj[head], rest, value)
    return type(obj)(out)


def _mutants(ws, verdict):
    """(verdict, must_report) for every one-leaf mutation of a verdict."""
    cert = verdict.certificate
    rows = ws.dim + (verdict.mode == "projective")
    yield Verdict(verdict.property_name, verdict.mode, not verdict.holds, cert), True
    for path, value, key in _leaves(cert):
        numeric = isinstance(value, (int, Fraction)) and not isinstance(value, bool)
        edits = [value + 1, value - 1, -value] if numeric else []
        edits += ["x", None, True]
        bad = []
        if key in _INDEX_KEYS:
            bad = [-1, rows if key == "row_indices" else ws.n]
        for new, must in [(e, False) for e in edits] + [(b, True) for b in bad]:
            try:
                yield Verdict(verdict.property_name, verdict.mode, verdict.holds,
                              _edit(cert, path, new)), must
            except InputError:
                assert path == ("kind",)
    for path, mapping in _dicts(cert):
        for key in mapping:
            try:
                yield Verdict(verdict.property_name, verdict.mode, verdict.holds,
                              _edit(cert, path + (key,), _DROP)), False
            except InputError:
                assert path + (key,) == ("kind",)


def test_certificate_mutations_never_raise():
    kinds = set()
    count = 0
    for ws, verdict in golden_verdicts():
        assert check_verdict(ws, verdict) == []
        kinds.add(verdict.kind)
        for mutant, must_report in _mutants(ws, verdict):
            count += 1
            problems = check_verdict(ws, mutant)
            if must_report:
                assert problems, (ws, mutant)
    assert count > 1000
    assert kinds == set(KINDS)


def test_a_kind_is_refused_under_any_claim_it_does_not_certify():
    """Every golden and fuzz oracle verdict is a claim its kind certifies
    in ``KINDS``; relabelled to each other property and mode, keeping its
    outcome, it is reported."""
    relabelled = 0
    for ws, verdict in [*golden_verdicts(), *fuzz_oracle_verdicts(71, 60)]:
        kind = KINDS[verdict.kind]
        assert verdict.property_name in kind.properties and verdict.mode in kind.modes
        assert verdict.holds == kind.holds
        for prop, mode in product(PROPERTIES, MODES):
            if prop not in kind.properties or mode not in kind.modes:
                relabelled += 1
                assert check_verdict(ws, Verdict(prop, mode, verdict.holds,
                                                 verdict.certificate)), (ws, prop, mode)
    assert relabelled > 1000


_PYRAMID = WeightSystem.from_rows(_PYRAMID_ROWS)
_ONE_TWO = WeightSystem.from_rows([[1], [2]])
# A line through w1 and w2 and a ray: x1 and x2 never vanish on the closure, x3 does.
_LINE_AND_RAY = WeightSystem.from_rows([[1, 0], [-1, 0], [0, 1]])
# A kernel witness on (1), (2) without the cone functional that affine
# SSP rests on: that orbit closure is not a cone, so SSP is not decided.
_CONELESS_KERNEL_WITNESS = {"kind": "kernel-witness", "pair": [0, 1],
                            "stratum_indices": [], "stratum_witness": [1]}


@pytest.mark.parametrize("ws, certificate, prop, holds", [
    (_PYRAMID, lambda: decide(_PYRAMID, "SP").certificate, "SSP", True),
    (_PYRAMID, lambda: decide(_PYRAMID, "SSP").certificate, "SP", False),
    (WeightSystem.from_rows([[1], [0]]),
     lambda: decide(WeightSystem.from_rows([[1], [0]]), "SP").certificate, "WSP", False),
    (WeightSystem.from_rows([[0]]), lambda: vacuous("SP", "affine").certificate, "SSP", True),
    (_ONE_TWO, lambda: _CONELESS_KERNEL_WITNESS, "SSP", False),
    (_ONE_TWO, lambda: {"kind": "affine-dependence", "relation": [2, -1]}, "SSP", False),
    (_LINE_AND_RAY, lambda: {"kind": "line-in-cone", "relation": (1, 1, 0), "pair": (0, 2)},
     "WSP", False),
], ids=["edge-separation-as-ssp", "kernel-witness-as-sp", "zero-weight-as-wsp",
        "vacuous-as-ssp", "kernel-witness-without-cone", "affine-dependence-as-affine",
        "line-in-cone-pair-off-the-relation"])
def test_forged_claims_are_refused(ws, certificate, prop, holds):
    """Seven affine verdicts are reported.  Six are false or undecided
    (affine SSP refuses a system that is not a cone): five carry a
    certificate that passes its kind's arithmetic under a claim the kind
    does not certify, and one an SSP failure without its cone functional.
    The seventh fails WSP, as it should, but its ``line-in-cone`` pair
    reads under WSP as "x1 and x3 cut the closure in the same hyperplane
    section", and x3 vanishes on the closure while x1 does not."""
    verdict = Verdict(prop, "affine", holds, certificate())
    if verdict.kind == "line-in-cone":
        assert not decide(ws, prop).holds
        assert cones.smallest_face(ws, ()).indices == (0, 1)
    else:
        try:
            truth = decide(ws, prop).holds
        except HypothesisError:
            truth = None
        assert truth is not holds
    assert check_verdict(ws, verdict)


def test_line_in_cone_is_read_under_its_property():
    """The SP and WSP certificates carry the same keys.  Under SP the
    relation must hold the pair's first position; only under WSP must it
    hold the second too."""
    sp, wsp = decide(_LINE_AND_RAY, "SP"), decide(_LINE_AND_RAY, "WSP")
    assert sp.kind == wsp.kind == "line-in-cone"
    assert set(sp.certificate) == set(wsp.certificate) == {"kind", "relation", "pair"}
    assert check_verdict(_LINE_AND_RAY, sp) == check_verdict(_LINE_AND_RAY, wsp) == []
    off = {**sp.certificate, "pair": (0, 2)}  # the relation (1, 1, 0) misses x3
    assert check_verdict(_LINE_AND_RAY, Verdict("SP", "affine", False, off)) == []
    assert check_verdict(_LINE_AND_RAY, Verdict("WSP", "affine", False, off)) == [
        "pair's second coordinate not in the relation"]
    for pair in ((2, 0), (True, 1)):
        moved = {**sp.certificate, "pair": pair}
        assert check_verdict(_LINE_AND_RAY, Verdict("SP", "affine", False, moved))


def test_a_kernel_witness_on_independent_weights_is_refused_by_its_depth():
    """``kernel-witness`` carries no relation: on the independent weights
    (1,0), (0,1) a forged one, whose empty stratum is a face avoiding the
    pair and whose cone functional is 1 on both weights, is refused by the
    rank check alone."""
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert decide(ws, "SSP").holds
    forged = {"kind": "kernel-witness", "pair": (0, 1), "stratum_indices": (),
              "stratum_witness": (1, 1), "cone_functional": (1, 1)}
    assert check_verdict(ws, Verdict("SSP", "affine", False, forged)) == [
        "stratum not deep enough to witness failure"]


def test_shared_face_relations_are_read_in_pair_order():
    """Relation k of a ``shared-face-interior`` certificate belongs to
    ``pair[k]``: the relations swapped, or only one of them, are refused.
    Swapped, each relation uses its own weight, which is on the face, and
    the problems say so rather than call it off the face."""
    ws = WeightSystem.from_rows([[1, 1], [2, 2], [1, 0]])
    verdict = decide(ws, "WSP")
    assert verdict.kind == "shared-face-interior" and check_verdict(ws, verdict) == []
    first, second = verdict.certificate["relations"]
    for relations in ((second, first), (first,)):
        mutant = Verdict("WSP", "affine", False, {**verdict.certificate, "relations": relations})
        assert check_verdict(ws, mutant), relations
    swapped = {**verdict.certificate, "relations": (second, first)}
    problems = check_verdict(ws, Verdict("WSP", "affine", False, swapped))
    assert {"relation of weight 0 uses weight 0", "relation of weight 1 uses weight 1"} <= set(
        problems)
    assert "relation supported off the face" not in problems


# (1, 1) is the sum of (1, 0) and (0, 1): it lies on no edge of the cone.
_INNER_SUM = WeightSystem.from_rows([[1, 0], [1, 1], [0, 1]])


def test_a_wsp_certificate_is_refused_as_an_sp_certificate():
    """On (1, 0), (1, 1), (0, 1) WSP holds and SP fails.  The WSP
    certificate's two fields, relabelled ``edge-separation``, are refused
    under SP: the witness of the minimal face of (1, 1), the whole cone,
    is 0 at the other two weights."""
    wsp = decide(_INNER_SUM, "WSP")
    assert wsp.kind == "face-separation" and check_verdict(_INNER_SUM, wsp) == []
    assert not decide(_INNER_SUM, "SP").holds
    forged = Verdict("SP", "affine", True, {**wsp.certificate, "kind": "edge-separation"})
    assert check_verdict(_INNER_SUM, forged) == ["face witness 1 is below 1 at another weight"]


def test_face_witnesses_of_a_shared_minimal_face_are_refused():
    """(1, 0) and (2, 0) share a minimal face, so WSP fails.  Witnesses
    that each support a face holding their weight are refused as a
    ``face-separation`` certificate: both are 0 at the other weight."""
    ws = WeightSystem.from_rows([[1, 0], [2, 0], [0, 1]])
    assert not decide(ws, "WSP").holds
    forged = Verdict("WSP", "affine", True, {"kind": "face-separation",
                                             "face_witnesses": ((0, 1), (0, 1), (1, 0))})
    assert check_verdict(ws, forged) == ["no face witness separates weights 0 and 1"]


_BELOW_ONE = "face witness {} is below 1 at another weight"


@pytest.mark.parametrize("rows, prop, problems", [
    ([[1, 0], [-1, 0], [0, 1]], "SP", [_BELOW_ONE.format(i) for i in (0, 1, 2)]),
    ([[0, 0], [1, 0], [0, 1]], "SP", [_BELOW_ONE.format(i) for i in (1, 2)]),
    ([[1, 0], [-1, 0], [0, 1]], "WSP", ["no face witness separates weights 0 and 1"]),
], ids=["sp-line", "sp-zero-weight", "wsp-line"])
def test_forged_holding_certificates_fail_on_the_face_witnesses(rows, prop, problems):
    """The property fails on each system: a line, or a zero weight, is
    in the cone.  A holding certificate of the witnesses of the weights'
    minimal faces, each supporting its face, is refused by the face
    witness table alone, with no pointedness functional to check."""
    ws = WeightSystem.from_rows(rows)
    assert not decide(ws, prop).holds
    kind = {"SP": "edge-separation", "WSP": "face-separation"}[prop]
    witnesses = tuple(cones.smallest_face(ws, (i,)).witness for i in range(ws.n))
    forged = Verdict(prop, "affine", True, {"kind": kind, "face_witnesses": witnesses})
    assert check_verdict(ws, forged) == problems


@pytest.mark.parametrize("rows, prop, listed, problems", [
    (_PYRAMID_ROWS, "WSP", ((0, 2), (1,), (2,), (3,)), ["entry 0 is not a stratum"]),
    (_PYRAMID_ROWS, "WSP", ((1,), (1,), (2,), (3,)), ["stratum 0 does not hold weight 0"]),
    (_PYRAMID_ROWS, "SP", ((0,), (1,), (2,)), [
        "one stratum per weight required",
        "malformed certificate: IndexError('tuple index out of range')"]),
    (_PYRAMID_ROWS, "SP", ((0, 1), (1,), (2,), (3,)), ["stratum 0 holds another weight"]),
    (_PYRAMID_ROWS, "WSP", ((0, 1), (1,), (2,), (3,)), []),
    ([[1, 0], [2, 0], [0, 1]], "WSP", ((0, 1), (0, 1), (2,)),
     ["no stratum distinguishes weights 0 and 1"]),
], ids=["not-a-stratum", "stratum-misses-its-weight", "one-entry-short",
        "separation-entry-holds-two", "distinguished-entry-holds-two", "shared-lowest-stratum"])
def test_listed_strata_are_checked_one_per_weight(rows, prop, listed, problems):
    """A holding ``strata-*`` certificate lists, for each weight k, a
    stratum holding k.  SP and WSP hold on the square pyramid, on the four
    rays.  Two opposite rays (0, 2) span no face; an edge (0, 1) is a
    stratum holding weight 0 that also holds weight 1, which SP refuses
    and WSP accepts, as the ray (1,) still misses weight 0.  On (1, 0),
    (2, 0), (0, 1), WSP fails: weights 0 and 1 share their lowest stratum."""
    ws = WeightSystem.from_rows(rows)
    kind = {"SP": "strata-separation", "WSP": "strata-distinguished"}[prop]
    forged = Verdict(prop, "affine", True, {"kind": kind, "strata": listed})
    assert check_verdict(ws, forged) == problems
    assert decide(ws, prop).holds == (rows is _PYRAMID_ROWS)


@pytest.mark.parametrize("rows, prop, witnesses, problems", [
    ([[1, 0], [1, 1], [0, 1]], "SP", ((0, 1), (1, 1), (1, 0)), [1]),
    ([[1, 0], [0, 1], [1, 2], [2, 1]], "WSP", ((0, 1), (1, 0), (2, -1), (1, -2)), [2, 3]),
], ids=["sp-witness-positive-at-its-weight", "wsp-witnesses-negative-at-a-weight"])
def test_a_face_witness_must_support_a_face_holding_its_weight(rows, prop, witnesses,
                                                                problems):
    """The property fails on both systems, yet every other condition
    holds: on the first, (1, 1) gets a witness positive on every weight;
    on the second, (1, 2) and (2, 1), inside the same face, get witnesses
    that separate them but are negative at a weight."""
    ws = WeightSystem.from_rows(rows)
    assert not decide(ws, prop).holds
    kind = {"SP": "edge-separation", "WSP": "face-separation"}[prop]
    forged = Verdict(prop, "affine", True, {"kind": kind, "face_witnesses": witnesses})
    assert check_verdict(ws, forged) == [
        f"face witness {i} does not support a face holding weight {i}" for i in problems]


def test_swapped_face_witnesses_are_refused():
    """Each face witness belongs to its weight: in every golden holding SP
    and WSP certificate, swapping the witnesses of any two weights is
    reported."""
    kinds = set()
    for ws, verdict in golden_verdicts():
        cert = verdict.certificate
        if verdict.kind not in ("edge-separation", "face-separation"):
            continue
        for i, j in combinations(range(ws.n), 2):
            witnesses = list(cert["face_witnesses"])
            witnesses[i], witnesses[j] = witnesses[j], witnesses[i]
            mutant = Verdict(verdict.property_name, verdict.mode, True,
                             {**cert, "face_witnesses": tuple(witnesses)})
            assert check_verdict(ws, mutant), (ws, mutant)
            kinds.add(verdict.kind)
    assert kinds == {"edge-separation", "face-separation"}


def test_affine_ssp_failure_needs_its_cone_functional():
    """A ``kernel-witness`` certificate without its ``cone_functional``
    is reported; with it, as the decider makes it, it verifies."""
    verdict = decide(_PYRAMID, "SSP")
    assert verdict.kind == "kernel-witness" and check_verdict(_PYRAMID, verdict) == []
    bare = {k: v for k, v in verdict.certificate.items() if k != "cone_functional"}
    assert check_verdict(_PYRAMID, Verdict("SSP", "affine", False, bare))
    with pytest.raises(HypothesisError):
        decide(_ONE_TWO, "SSP")
    problems = check_verdict(_ONE_TWO, Verdict("SSP", "affine", False, _CONELESS_KERNEL_WITNESS))
    assert problems == ["malformed certificate: KeyError('cone_functional')"]


_STRATA_KINDS = {"strata-missed-hyperplane", "strata-forcing-pair", "strata-separation",
                 "strata-equivalent-pair", "strata-distinguished"}


def _forgeries(ws, verdict, rng):
    """Well-formed ``strata-*`` certificates on the system of an oracle
    verdict, true or false: on an SP verdict, every missed coordinate,
    forcing pair and equivalent pair; on a holding verdict, its listed
    strata with two of them swapped, or one replaced by a random set."""
    n, mode = ws.n, verdict.mode
    if verdict.property_name == "SP":
        for i in range(n):
            yield Verdict("SP", mode, False, {"kind": "strata-missed-hyperplane",
                                              "pair": (i, 0 if i else 1)})
        for j in range(n):
            for i in range(n):
                if i != j:
                    yield Verdict("SP", mode, False, {"kind": "strata-forcing-pair",
                                                      "pair": (j, i)})
                    yield Verdict("WSP", mode, False, {"kind": "strata-equivalent-pair",
                                                       "pair": (j, i)})
    listed = verdict.certificate.get("strata", ())
    for k in range(min(len(listed), 4)):
        swapped, replaced = list(listed), list(listed)
        other = rng.choice([j for j in range(n) if j != k])
        swapped[k], swapped[other] = listed[other], listed[k]
        replaced[k] = tuple(sorted(rng.sample(range(n), rng.randint(0, n))))
        for forged in (swapped, replaced):
            yield Verdict(verdict.property_name, mode, True,
                          {**verdict.certificate, "strata": tuple(forged)})


def test_strata_checks_match_the_lattice_reference():
    """The verifier reads smallest faces where it used to read every
    stratum of the face lattice (``helpers.reference_check_verdict``);
    both accept and reject the same ``strata-*`` certificates: the
    golden verdicts and their one-leaf mutants, and fuzz oracle verdicts
    with forged certificates on the same systems."""
    rng = random.Random(83)
    cases = []
    for ws, verdict in golden_verdicts():
        if verdict.kind in _STRATA_KINDS:
            cases += [(ws, verdict)] + [(ws, m) for m, _ in _mutants(ws, verdict)]
    for ws, verdict in fuzz_oracle_verdicts(71, 150):
        cases += [(ws, verdict)] + [(ws, f) for f in _forgeries(ws, verdict, rng)]
    outcomes = set()
    for ws, verdict in cases:
        accepted = not check_verdict(ws, verdict)
        assert accepted == (not reference_check_verdict(ws, verdict)), (ws, verdict)
        outcomes.add((verdict.kind, accepted))
    assert {(kind, ok) for kind in _STRATA_KINDS for ok in (True, False)} <= outcomes
    assert len(cases) > 10_000


def test_oracle_certificates_verify_without_the_face_lattice(monkeypatch):
    """Every golden verdict and every fuzz oracle verdict re-verifies
    while building a face lattice raises."""
    verdicts = [*golden_verdicts(), *fuzz_oracle_verdicts(71, 150)]

    def refuse(*args, **kwargs):
        raise AssertionError("the verifier built the face lattice")

    clear_cone_caches()
    for module in (cones, importlib.import_module("torsep.strata")):
        monkeypatch.setattr(module, "enumerate_faces", refuse)
    try:
        for ws, verdict in verdicts:
            assert check_verdict(ws, verdict) == [], (ws, verdict)
    finally:
        clear_cone_caches()
    assert _STRATA_KINDS <= {verdict.kind for _, verdict in verdicts}
