"""Invariants that must not depend on ``assert`` statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsep.errors import InputError
from torsep.verdict import Verdict

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
