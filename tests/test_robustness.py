"""Invariants that must not depend on ``assert`` statements, on
well-formed certificates, or on the benchmark's tracer alone."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsep.cones import WeightSystem
from torsep.errors import InputError, InternalError
from torsep.verdict import Verdict
from torsep.verification import check_verdict, verify_verdict

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _env_with_src():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def test_verdict_rejects_unknown_property_and_mode():
    with pytest.raises(InputError):
        Verdict("XX", "affine", True, {})
    with pytest.raises(InputError):
        Verdict("SP", "bogus", True, {})


def test_verdict_validation_survives_optimize_flag():
    code = (
        "from torsep.errors import InputError\n"
        "from torsep.verdict import Verdict\n"
        "try:\n"
        "    Verdict('XX', 'bogus', True, {})\n"
        "except InputError:\n"
        "    print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=_env_with_src(), capture_output=True, text=True, timeout=60, check=True,
    )
    assert out.stdout.strip() == "raised"


def test_package_holds_no_assert_statements():
    offenders = []
    for path in sorted((SRC / "torsep").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_acceptance_suite_passes_under_optimize_flag():
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "tests" / "test_acceptance.py")],
        cwd=ROOT, env=_env_with_src(), capture_output=True, text=True, timeout=900,
    )
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]


@pytest.mark.parametrize("verdict", [
    Verdict("SSP", "affine", True,
            {"kind": "full-rank", "row_indices": (0, 5), "determinant": 1}),
    Verdict("SSP", "affine", True, {"kind": "full-rank", "determinant": 1}),
    Verdict("SP", "affine", False,
            {"kind": "generator-in-cone", "index": 0, "coefficients": [0, 1],
             "pair": (7, 0)}),
])
def test_malformed_certificate_is_a_problem_not_a_crash(verdict):
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    problems = check_verdict(ws, verdict)
    assert any(p.startswith("malformed certificate:") for p in problems)
    with pytest.raises(InternalError):
        verify_verdict(ws, verdict)


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
