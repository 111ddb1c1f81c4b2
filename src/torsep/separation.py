"""Theorem-backed decision procedures for SP, WSP and SSP.

Affine SP holds exactly when no weight, and no negated weight, is a
nonnegative rational combination of the remaining weights; equivalently
the weight cone is pointed and each weight alone spans an extreme ray.
Affine WSP requires the weight cone to be pointed and the minimal-face
map to be injective.  Affine SSP (for orbit closures that are cones)
holds exactly when the weights are linearly independent.  The
projective deciders act on the homogenized weights (appended coordinate
1); projective SSP is affine independence.

The lineality face (hence pointedness), minimal faces, their witnesses
and the SSP coordinate witness are read off the facets, and the cone
hypothesis off the Hermite form, so a holding SP or WSP verdict runs no
LP.  SP has one route on every cone: the first failing position is read
off the lineality and minimal faces.  WSP fails at the first pair with
a shared minimal face.  Both hold on one witness of each weight's
minimal face, which also rules out a line in the cone.  The simplex
runs only for a failure's relation, each over the weights of one face:
SP's over the minimal face of the failing weight (none for a zero
weight), that of a cone that is not pointed over the lineality face,
and the interior relations of a shared face.  SSP builds no whole
relation lattice: affine SSP counts independent rows, and projective
SSP reads the relations of the first dim + 1 homogenized weights.

Every verdict carries a certificate checkable by plain arithmetic; see
``torsep.verification``.
"""

from __future__ import annotations

from itertools import combinations

from .cones import (
    WeightSystem,
    face_combination,
    homogenize,
    is_strictly_convex,
    minimal_face,
    smallest_face,
)
from .errors import HypothesisError, InputError, InternalError
from .linalg import (
    clear_denominators,
    dot,
    independent_rows,
    is_zero_vector,
    kernel_lattice,
    solve_exact,
)
from .lp import cone_member
from .strata import ssp_coordinate_witness
from .verdict import MODES, PROPERTIES, Verdict, vacuous


def _sp_failure(ws: WeightSystem, i: int) -> dict:
    """The certificate of SP failing at position i: w_i or -w_i is a
    nonnegative combination of the other weights.

    A zero weight needs no LP.  Otherwise w_i is tested over F(i) - {i},
    where F(i) is the minimal face of w_i.  That is exact: the witness f
    of F(i) is 0 on F(i) and >= 1 off it, so sum_k lam_k w_k = w_i with
    lam >= 0 gives 0 = f.w_i >= the sum of lam_k off F(i), and lam
    vanishes there.  When that fails, i is on the lineality face L (off
    L, ``decide_affine_sp`` asks only when F(i) holds another weight off
    L, whose cone then holds w_i), and it is the first position of L,
    as every earlier one has failed already; so F(i) = L, and -w_i over
    L - {i} is the LP of ``is_strictly_convex``, whose relation exists as
    L is not empty (the cone is not pointed) and is taken.
    """
    w = ws.weights[i]
    if is_zero_vector(w):
        # That coordinate is identically 1 on the closure, so its
        # hyperplane is missed entirely.
        return {"kind": "zero-weight", "pair": (i, 0 if i else 1)}
    lam = face_combination(ws, w, [k for k in minimal_face(ws, i) if k != i])
    if lam is not None:
        j = next(k for k, x in enumerate(lam) if x > 0)
        return {"kind": "generator-in-cone", "coefficients": lam, "pair": (j, i)}
    relation = is_strictly_convex(ws).relation
    if relation is None:
        raise InternalError("SP failure expected but no certificate found")
    return {"kind": "line-in-cone", "relation": relation, "pair": (i, 0 if i else 1)}


def decide_affine_sp(ws: WeightSystem) -> Verdict:
    """Separation property of the affine orbit closure of a general point.

    SP holds iff the weight cone is pointed and every weight alone spans
    an extreme ray.  Let L be the lineality face (the positions on every
    facet).  SP fails at i iff i is in L, or the minimal face of w_i
    holds another position outside L: a nonzero weight of L has -w_i in
    the cone of the others, and a weight off L lies in the cone of the
    others iff its minimal face holds another weight off L.  Only the
    first such position's certificate takes LPs, on its minimal face.
    A holding verdict runs none.  It holds on each f_i, the witness of
    {i} (0 at w_i, >= 1 elsewhere), which keeps w_i out of the cone of the
    others, and -w_i too, as f_j.w_i >= 1 for any j != i.
    """
    if ws.n == 1:
        return vacuous("SP", "affine")
    low, witnesses = set(smallest_face(ws, ()).indices), []
    for i in range(ws.n):
        face = smallest_face(ws, (i,))
        if i in low or len(set(face.indices) - low) > 1:
            return Verdict("SP", "affine", False, _sp_failure(ws, i))
        witnesses.append(face.witness)
    return Verdict("SP", "affine", True, {"kind": "edge-separation",
                                          "face_witnesses": tuple(witnesses)})


def _interior_relation(ws: WeightSystem, idx: int, face_indices) -> dict:
    """The record of an integer relation M * w_idx = sum_k c_k w_k over
    the other face weights, with M and every c_k at least 1: w_idx is in
    the relative interior of the face.  With M = 1 + m and c_k = 1 + c'_k
    it is one membership of ``ws.dim`` rows: sum_k w_k - w_idx in the cone
    of w_idx and the -w_k, with coefficients (m, c') = Y / L, where L is
    the lcm of their denominators; then (M, c) = L + Y."""
    others = [k for k in face_indices if k != idx]
    w = ws.weights
    target = tuple(sum(w[k][r] for k in others) - w[idx][r] for r in range(ws.dim))
    membership = cone_member(target, [w[idx]] + [tuple(-x for x in w[k]) for k in others])
    if not membership.inside:
        raise InternalError("relative-interior relation unexpectedly infeasible")
    nums, scale = clear_denominators(membership.coefficients)
    mult, *ints = [scale + y for y in nums]
    coeffs = dict(zip(others, ints))
    return {"multiplier": mult, "coefficients": tuple(coeffs.get(k, 0) for k in range(ws.n))}


def decide_affine_wsp(ws: WeightSystem) -> Verdict:
    """Weak separation property of the affine orbit closure: the cone is
    pointed and no two weights share a minimal face.  Certified as SP is."""
    if ws.n == 1:
        return vacuous("WSP", "affine")
    pointed = is_strictly_convex(ws)
    if not pointed.pointed:
        support = [k for k in range(ws.n) if pointed.relation[k] > 0]
        cert = {
            "kind": "line-in-cone",
            "relation": pointed.relation,
            "pair": (support[0], support[1]),
        }
        return Verdict("WSP", "affine", False, cert)
    faces = [smallest_face(ws, (i,)) for i in range(ws.n)]
    for i, j in combinations(range(ws.n), 2):
        shared = faces[i].indices
        if shared == faces[j].indices:
            cert = {
                "kind": "shared-face-interior",
                "pair": (i, j),
                "face_indices": shared,
                "face_witness": faces[i].witness,
                "relations": tuple(_interior_relation(ws, idx, shared) for idx in (i, j)),
            }
            return Verdict("WSP", "affine", False, cert)
    cert = {"kind": "face-separation", "face_witnesses": tuple(face.witness for face in faces)}
    return Verdict("WSP", "affine", True, cert)


def cone_hypothesis(ws: WeightSystem):
    """Whether the orbit closure is a cone, with a rational witness.

    Criterion: some rational functional takes the value 1 on every
    weight (equivalently the all-ones vector lies in the rational row
    space of the weight matrix).  Scaling a point of the closure by s
    multiplies a monomial x^c by s^(sum c); the closure is stable under
    scaling exactly when the exponent sums vanish on the relation
    lattice, which is this criterion.  An equality system, solved
    exactly on the Hermite form; the solution, cleared of denominators
    to U / L, is checked on every weight as w . U == L.
    """
    functional = solve_exact(ws.weights, [1] * ws.n)
    if functional is None:
        return False, None
    nums, scale = clear_denominators(functional)
    if any(dot(w, nums) != scale for w in ws.weights):
        raise InternalError("cone functional fails its arithmetic check")
    return True, functional


_CONE_NOTES = (
    "cone hypothesis verified: a rational functional takes value 1 on every weight",
    "cone criterion (all-ones vector in the rational row space) is an "
    "implementation-level derivation, not part of the decision statement",
)


def decide_affine_ssp(ws: WeightSystem) -> Verdict:
    """Strong separation property for cone-type affine orbit closures.

    Requires the closure to be a cone and refuses (HypothesisError)
    otherwise.  Holds iff the weights are independent: the first
    independent rows of the transposed weights, the nonsingular minor a
    holding verdict carries, are n.  A failure names the first coordinate
    pair avoided by a facet, and that facet; no resource guard applies.
    """
    is_cone, functional = cone_hypothesis(ws)
    if not is_cone:
        raise HypothesisError(
            "SSP hypothesis not satisfied: the orbit closure is not a cone "
            "(no rational functional takes the value 1 on every weight)"
        )
    rows = independent_rows(tuple(zip(*ws.weights)))
    if len(rows) == ws.n:
        cert = {"kind": "full-rank", "row_indices": rows, "cone_functional": functional}
        return Verdict("SSP", "affine", True, cert, notes=_CONE_NOTES)
    witness = ssp_coordinate_witness(ws)
    if witness is None:
        raise InternalError(
            "weights are dependent but no facet avoids a coordinate pair; "
            "the rank test and the facet scan disagree"
        )
    cert = {
        "kind": "kernel-witness",
        "pair": witness.pair,
        "stratum_indices": witness.stratum.indices,
        "stratum_witness": witness.stratum.witness,
        "cone_functional": functional,
    }
    return Verdict("SSP", "affine", False, cert, notes=_CONE_NOTES)


_PROJ_NOTE = "decided on homogenized weights (appended coordinate 1)"


def projective(inner: Verdict) -> Verdict:
    """The projective verdict of a system, given as ``inner`` the affine
    verdict of its homogenized weights."""
    return Verdict(inner.property_name, "projective", inner.holds, inner.certificate,
                   notes=inner.notes + (_PROJ_NOTE,))


def decide_projective_sp(ws: WeightSystem) -> Verdict:
    """Separation property of the projective orbit closure.

    Equivalent to affine SP after homogenization: every weight must be
    a vertex of the convex hull and all weights distinct.
    """
    return projective(decide_affine_sp(homogenize(ws)))


def decide_projective_wsp(ws: WeightSystem) -> Verdict:
    """Weak separation property of the projective orbit closure."""
    return projective(decide_affine_wsp(homogenize(ws)))


def decide_projective_ssp(ws: WeightSystem) -> Verdict:
    """Strong separation property of the projective orbit closure.

    Holds iff the homogenized weights, in Z^dim, are independent (the
    closure is the whole projective space); no cone hypothesis is needed,
    as the homogenized closure is a cone.  Any dim + 1 of them are
    dependent, so the relation lattice of the first dim + 1 is empty
    exactly when SSP holds; a failure pads its first relation with zeros.
    """
    hws = homogenize(ws)
    kernel = kernel_lattice(hws.weights[:hws.dim + 1])
    if not kernel:
        cert = {"kind": "affine-independent",
                "row_indices": independent_rows(tuple(zip(*hws.weights)))}
        return Verdict("SSP", "projective", True, cert, notes=(_PROJ_NOTE,))
    cert = {"kind": "affine-dependence", "relation": kernel[0] + (0,) * (hws.n - len(kernel[0]))}
    return Verdict("SSP", "projective", False, cert, notes=(_PROJ_NOTE,))


_DISPATCH = {
    ("SP", "affine"): decide_affine_sp,
    ("WSP", "affine"): decide_affine_wsp,
    ("SSP", "affine"): decide_affine_ssp,
    ("SP", "projective"): decide_projective_sp,
    ("WSP", "projective"): decide_projective_wsp,
    ("SSP", "projective"): decide_projective_ssp,
}


def decide(ws: WeightSystem, property_name: str, mode: str = "affine") -> Verdict:
    """Dispatch to the decider for (property, mode)."""
    key = (property_name.upper(), mode)
    if key not in _DISPATCH:
        raise InputError(f"no decider for property {property_name!r} in mode {mode!r}: "
                         f"properties are {', '.join(PROPERTIES)}, modes {', '.join(MODES)}")
    return _DISPATCH[key](ws)
