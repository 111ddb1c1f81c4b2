"""Draw each workload's catalog and pin its cross-validated answers.

    python3 perfbench/make_catalog.py      # from the repository root

Draws ``catalog_size`` instances per workload from its distribution
with ``CATALOG_SEED``, runs each through ``torsep.cli.main`` and keeps
the pinned part of the report (verdicts with certificate kinds, skipped
properties, face index sets, forcing pairs).  Every instance must pass
the harness's own check, and its answer must agree with an independent
route before it is written:

- decide: the theorem-route verdicts equal the stratum oracle's, on the
  homogenized weights in projective mode;
- oracle: the oracle verdicts equal the theorem route's;
- strata: every minimal face is a stratum, and the theorem-route SP and
  WSP verdicts equal the oracle verdicts derived from these strata;
- chpairs: the pairs equal {(i, j) : i lies on the minimal face of j};
- verify: the report's own agreement flag (theorem, oracle and
  binomial scan).

Rewrites ``catalog.json``; the answers change only if torsep's verdicts
do.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import torsep.cli as cli  # noqa: E402
from torsep.cones import WeightSystem, homogenize, minimal_face  # noqa: E402
from torsep.separation import cone_hypothesis, decide  # noqa: E402
from torsep.strata import oracle_sp, oracle_wsp, ssp_coordinate_witness  # noqa: E402

from worker import call_cli  # noqa: E402
from workloads import CATALOG_PATH, CATALOG_SEED, WORKLOADS, answer, check, stream  # noqa: E402


def cross_route(entry: dict, got: dict) -> list[str]:
    """Disagreements between the pinned answer and an independent route."""
    ws = WeightSystem(entry["d"], tuple(map(tuple, entry["weights"])))
    command = entry["argv"][0]
    holds = {p: hk[0] for p, hk in got["verdicts"].items()}
    want = {}
    if command == "decide":
        projective = "projective" in entry["argv"]
        target = homogenize(ws) if projective else ws
        want["SP"] = oracle_sp(target).holds
        want["WSP"] = oracle_wsp(target).holds
        if projective or cone_hypothesis(ws)[0]:
            want["SSP"] = ssp_coordinate_witness(target) is None
    elif command in ("oracle", "strata"):
        want["SP"] = decide(ws, "SP", "affine").holds
        want["WSP"] = decide(ws, "WSP", "affine").holds
        if command == "strata":
            holds = {"SP": oracle_sp(ws).holds, "WSP": oracle_wsp(ws).holds}
            faces = set(got["faces"])
            for i in range(ws.n):
                if sum(1 << k for k in minimal_face(ws, i)) not in faces:
                    return [f"minimal face of {i} is not a stratum"]
    elif command == "chpairs":
        pairs = sorted([i, j] for j in range(ws.n) for i in minimal_face(ws, j))
        return [] if pairs == got["pairs"] else ["pairs differ from minimal faces"]
    else:
        return []
    return [] if holds == want else [f"routes disagree: {holds} vs {want}"]


def main() -> int:
    out = {"catalog_seed": CATALOG_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        rng = random.Random(f"{name}:{CATALOG_SEED}")
        entries = [workload.draw(rng) for _ in range(workload.catalog_size)]
        for entry in entries:
            entry["expect"] = None  # filled in below
        for index, (entry, item) in enumerate(zip(entries, stream(entries, 0, 1)[0])):
            code, text, err, _ = call_cli(cli, list(item.argv), item.text)
            if code != 0:
                print(f"{name}[{index}]: exit {code}: {err}", file=sys.stderr)
                return 1
            got = answer(json.loads(text))
            entry["expect"] = got
            problems = check(replace(item, expect=got), code, text)
            problems += cross_route(entry, got)
            if problems:
                print(f"{name}[{index}] {entry}: {problems}", file=sys.stderr)
                return 1
        out["workloads"][name] = entries
        print(f"{name}: {len(entries)} instances pinned", file=sys.stderr)
    # One instance per line keeps diffs of the catalog readable.
    lines = [f'{{"catalog_seed":{CATALOG_SEED},"workloads":{{']
    for w, (name, entries) in enumerate(out["workloads"].items()):
        lines.append(f"{json.dumps(name)}:[")
        lines += [json.dumps(e, separators=(",", ":")) + ("," if i + 1 < len(entries) else "")
                  for i, e in enumerate(entries)]
        lines.append("]" + ("," if w + 1 < len(out["workloads"]) else ""))
    lines.append("}}")
    CATALOG_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
