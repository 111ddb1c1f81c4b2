"""Brute-force stratum oracle for independent cross-validation.

The affine orbit closure decomposes into torus orbits, one per face of
the weight cone: on the stratum attached to a face, exactly the
coordinates whose weights lie on that face are nonzero.  Re-deriving
SP/WSP verdicts from these vanishing patterns alone gives a decision
route that shares only the facets with the theorem-backed deciders,
which never build the face lattice.  Only ``strata`` computes stratum
dimensions; both oracles are one pass, which reads one bitmask per
coordinate (bit s set where it is nonzero on stratum s), walks the
property's pairs once and, if none fails, lists one stratum per weight.
Forcing pairs and SSP witnesses come from minimal faces and facets.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, islice, permutations

from .cones import WeightSystem, enumerate_faces, facets, smallest_face
from .linalg import rank
from .verdict import Verdict, vacuous


class Stratum(namedtuple("Stratum", "indices witness dim")):
    """A torus orbit inside the closure: coordinate k is nonzero on it
    iff k is in ``indices``.  ``dim`` is the rank of the weights on the
    face; ``witness`` is the face's supporting functional."""

    __slots__ = ()


def strata(ws: WeightSystem) -> tuple[Stratum, ...]:
    """One stratum per face of the weight cone, in canonical order."""
    return tuple(
        Stratum(f.indices, f.witness, rank([ws.weights[k] for k in f.indices]))
        for f in enumerate_faces(ws)
    )


_NOTES = ("stratum oracle",)


def _pair_pass(prop: str, ws: WeightSystem) -> Verdict:
    """The oracle's ``prop`` verdict: one pass over its coordinate pairs
    (i, j), split by the strata that hold j and miss i (SP) or hold
    exactly one of the two (WSP).  The first pair no stratum splits
    fails; else each k's lowest stratum S_k, its smallest face, is listed."""
    if ws.n == 1:
        return vacuous(prop, "affine", _NOTES)
    sets = [f.indices for f in enumerate_faces(ws)]
    pat = [0] * ws.n  # bit s of pat[k] is set iff k is nonzero on stratum s
    for s, indices in enumerate(sets):
        for k in indices:
            pat[k] |= 1 << s
    sp = prop == "SP"
    if sp and sets[0]:  # the least stratum, the lineality face, is in every stratum
        i = sets[0][0]
        cert = {"kind": "strata-missed-hyperplane", "pair": (i, 0 if i else 1)}
        return Verdict(prop, "affine", False, cert, _NOTES)
    for i, j in (permutations if sp else combinations)(range(ws.n), 2):
        if not (pat[j] & ~pat[i] if sp else pat[i] ^ pat[j]):
            kind = "strata-forcing-pair" if sp else "strata-equivalent-pair"
            return Verdict(prop, "affine", False, {"kind": kind, "pair": (i, j)}, _NOTES)
    cert = {"kind": "strata-separation" if sp else "strata-distinguished",
            "strata": tuple(sets[(p & -p).bit_length() - 1] for p in pat)}  # lowest set bit
    return Verdict(prop, "affine", True, cert, _NOTES)


def oracle_sp(ws: WeightSystem) -> Verdict:
    """SP verdict from vanishing patterns alone.

    Fails iff some coordinate never vanishes on the closure (it appears
    in every stratum), or some ordered pair (j, i) has every stratum
    missing j also missing i (so x_{j+1} = 0 forces x_{i+1} = 0).
    """
    return _pair_pass("SP", ws)


def oracle_wsp(ws: WeightSystem) -> Verdict:
    """WSP verdict from vanishing patterns alone.

    Fails iff two coordinates vanish on exactly the same strata, i.e.
    the two coordinate hyperplanes cut the closure in the same set.
    """
    return _pair_pass("WSP", ws)


def characteristic_pairs(ws: WeightSystem) -> tuple[tuple[int, int], ...]:
    """Ordered pairs (i, j) such that x_{i+1} = 0 forces x_{j+1} = 0: n
    face queries, no face lattice.

    That is, every stratum missing i misses j: every face holding j holds
    i.  Every face holding j holds its smallest face F(j), itself a face,
    so the pair is there iff i is in F(j).  The diagonal is always
    included; the set equals the diagonal iff the oracle's SP verdict
    holds (given n >= 2 and no coordinate nonzero everywhere).
    """
    faces = [set(smallest_face(ws, (j,)).indices) for j in range(ws.n)]
    return tuple((i, j) for i in range(ws.n) for j in range(ws.n) if i in faces[j])


class SspWitness(namedtuple("SspWitness", "pair stratum ambient_rank")):
    """A codimension-2 coordinate subspace meeting the closure too deeply.

    ``stratum`` is a facet (a ``ConeFace``) avoiding both coordinates of
    ``pair``; its closure has dimension ambient_rank - 1, so cutting by
    the two coordinates drops the dimension by at most one.
    """

    __slots__ = ()


def ssp_coordinate_witness(ws: WeightSystem) -> SspWitness | None:
    """First coordinate pair witnessing an SSP failure, or None.

    Intended for inputs whose orbit closure is a cone (the caller checks
    that hypothesis).  A witness avoids the pair and has rank >= r - 1
    (r the rank of the weights), so it is a facet, its own stratum
    witness; no face lattice is built.  Every pair a facet avoids lies
    off it, so its first is its two lowest off-positions; the least of
    these over the facets in canonical order, from the first facet giving
    it, is the first pair avoided and the first facet avoiding it.
    """
    if ws.n < 2:
        return None
    best = None
    for facet in sorted(facets(ws), key=lambda f: (len(f.indices), f.indices)):
        held = set(facet.indices)
        pair = tuple(islice((k for k in range(ws.n) if k not in held), 2))
        if len(pair) == 2 and (best is None or pair < best[0]):
            best = pair, facet
    return None if best is None else SspWitness(*best, rank(ws.weights))
