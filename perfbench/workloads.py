"""Workload definitions, seeded instance streams and the answer checks.

Each workload owns a catalog: a fixed list of instances drawn once from
the workload's distribution with ``CATALOG_SEED`` and stored, together
with the cross-validated expected answer of each instance, in
``catalog.json`` (rebuilt by ``make_catalog.py``).

A run's ``--seed`` turns the catalog into the run's inputs.  Pass ``k``
of the stream is the whole catalog, in catalog order, with every
instance moved by a seeded symmetry: a permutation of the weights and a
signed permutation of the coordinates.  Both preserve the entry
distribution and every verdict (SP/WSP/SSP are invariant under
GL(d, Z) and under relabelling coordinates), and they map face index
sets and forcing pairs by the weight permutation.  So every instance of
every seed has a known answer, while the amount of work per pass stays
close to the catalog's, which keeps run-to-run spread small.  Seed 0
leaves the first pass untouched: it replays the committed catalog, and
certificate kinds are compared exactly on that pass.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

CATALOG_PATH = Path(__file__).resolve().parent / "catalog.json"
CATALOG_SEED = 1
COMMITTED_SEED = 0


@dataclass(frozen=True)
class Workload:
    """A named instance distribution; README.md says why each was chosen."""

    name: str
    catalog_size: int  # one pass; a run holds a few passes

    def draw(self, rng: random.Random) -> dict:
        """One catalog instance: the command's argv and a weight system."""
        if self.name == "verify-small":
            d, n = rng.choice((1, 2, 3)), rng.randint(1, 6)
            argv = ["verify", "--mode", "affine"]
        elif self.name == "decide-wide":
            d, n = rng.choice((2, 3)), rng.randint(4, 6)
            argv = ["decide", "--property", "all",
                    "--mode", rng.choice(("affine", "projective"))]
        else:
            d, n = rng.choice((2, 3)), rng.randint(5, 8)
            argv = [rng.choice(("strata", "chpairs", "oracle"))]
            if argv[0] == "oracle":
                argv += ["--property", "all", "--mode", "affine"]
        weights = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(n)]
        return {"argv": argv, "d": d, "weights": weights}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-small", catalog_size=120),
        Workload("decide-wide", catalog_size=70),
        Workload("faces-wide", catalog_size=70),
    )
}


def load_catalog(name: str) -> list[dict]:
    with open(CATALOG_PATH, encoding="utf-8") as handle:
        data = json.load(handle)
    if data["catalog_seed"] != CATALOG_SEED:
        raise ValueError("catalog.json was drawn with another catalog seed")
    return data["workloads"][name]


@dataclass(frozen=True)
class Symmetry:
    """new weight p = signed coordinate permutation of old weight perm[p]."""

    perm: tuple[int, ...]
    coords: tuple[int, ...]
    signs: tuple[int, ...]

    @property
    def identity(self) -> bool:
        return (self.perm == tuple(range(len(self.perm)))
                and self.coords == tuple(range(len(self.coords)))
                and all(s == 1 for s in self.signs))

    def weights(self, weights):
        return [[s * weights[p][c] for c, s in zip(self.coords, self.signs)]
                for p in self.perm]

    def index(self, old: int) -> int:
        return self.perm.index(old)


def _symmetry(rng: random.Random, d: int, n: int, identity: bool) -> Symmetry:
    perm, coords = list(range(n)), list(range(d))
    signs = [1] * d
    if not identity:
        rng.shuffle(perm)
        rng.shuffle(coords)
        signs = [rng.choice((-1, 1)) for _ in range(d)]
    return Symmetry(tuple(perm), tuple(coords), tuple(signs))


@dataclass(frozen=True)
class Item:
    """One instance of the run's stream, with what is needed to check it."""

    argv: tuple[str, ...]
    text: str
    weights: tuple[tuple[int, ...], ...]
    expect: dict
    symmetry: Symmetry


def stream(catalog: list[dict], seed: int, passes: int) -> list[list[Item]]:
    """The run's inputs: ``passes`` transformed copies of the catalog."""
    out = []
    for k in range(passes):
        rng = random.Random(f"{seed}:{k}")
        out.append(items := [])
        for entry in catalog:
            sym = _symmetry(rng, entry["d"], len(entry["weights"]),
                            identity=(seed == COMMITTED_SEED and k == 0))
            weights = sym.weights(entry["weights"])
            text = json.dumps({"d": entry["d"], "weights": weights})
            items.append(Item(tuple(entry["argv"]), text,
                              tuple(map(tuple, weights)), entry["expect"], sym))
    return out


def answer(report: dict) -> dict:
    """The pinned part of a report: verdicts, kinds, face sets, pairs.

    Functional values and binomial sets are left out on purpose, so that
    a change of solver or generating set does not break the pin.
    """
    out = {"verdicts": {v["property"]: [v["holds"], v["certificate"]["kind"]]
                        for v in report["verdicts"]}}
    extra = report["extra"]
    if report["command"] == "decide":
        out["skipped"] = sorted(s["property"] for s in extra.get("skipped", []))
    if report["command"] == "strata":
        out["faces"] = sorted(sum(1 << i for i in s["indices"])
                              for s in extra["strata"])
    if report["command"] == "chpairs":
        out["pairs"] = sorted(extra["pairs"])
    return out


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def check(item: Item, code: int, output: str) -> list[str]:
    """Problems with one CLI answer; an empty list means it passed."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(output)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    for v in report["verdicts"]:
        if v["verified"] is not True:
            problems.append(f"{v['property']} certificate not verified")
    extra = report["extra"]
    if report["command"] == "verify":
        if extra.get("agreement") is not True:
            problems.append("verify reports agreement false")
        if extra.get("vanishing", {}).get("failures") != 0:
            problems.append("verify reports vanishing failures")
    if report["command"] == "strata":
        for s in extra["strata"]:
            inside = set(s["indices"])
            for k, w in enumerate(item.weights):
                value = _dot(s["witness"], w)
                if (value != 0) if k in inside else (value < 1):
                    problems.append(f"stratum {s['indices']} witness fails at {k}")
                    break

    got, want, sym = answer(report), item.expect, item.symmetry
    got_verdicts = {p: hk[0] for p, hk in got["verdicts"].items()}
    want_verdicts = {p: hk[0] for p, hk in want["verdicts"].items()}
    if sym.identity:
        got_verdicts, want_verdicts = got["verdicts"], want["verdicts"]
    if got_verdicts != want_verdicts:
        problems.append(f"verdicts {got_verdicts} != expected {want_verdicts}")
    if got.get("skipped") != want.get("skipped"):
        problems.append(f"skipped {got.get('skipped')} != {want.get('skipped')}")
    if "faces" in want:
        mapped = sorted(sum(1 << sym.index(i) for i in range(len(sym.perm))
                            if mask >> i & 1) for mask in want["faces"])
        if got["faces"] != mapped:
            problems.append("face index sets differ from the expected lattice")
    if "pairs" in want:
        mapped = sorted([sym.index(i), sym.index(j)] for i, j in want["pairs"])
        if got["pairs"] != mapped:
            problems.append("forcing pairs differ from the expected pairs")
    return problems
