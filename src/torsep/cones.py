"""Polyhedral structure of the cone spanned by the action's weights.

Every face is a ``ConeFace``: the generator index set (which weights lie
on the face) and a supporting integer functional as witness.  Faces are
read off one cached facet table: ``facets`` finds the facets once per
system by double description on ints alone, each witnessed by its
primitive normal, and a second table keeps their zero sets as int
bitmasks of positions, the one form of a face's index set until it is
returned.  One query, ``smallest_face(ws, positions)``, answers every
face question: the intersection of the facets whose zero masks hold the
positions' mask, witnessed by the sum of their normals.  The lineality
face (no positions), minimal faces (one position) and the face lattice
(the zero masks closed under ``&``) therefore run no LP.  A failure
relation is one LP on one face: ``face_combination`` writes a vector
over the weights at given positions.  The edge tests and ``face_witness``
keep their own LPs.  Positions are 0-based; coordinate x{k} is position k-1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import InputError, InternalError, ResourceGuardError
from .linalg import (
    clear_denominators,
    dot,
    independent_rows,
    inverse_columns,
    is_zero_vector,
    primitive_vector,
    rank,
)
from .lp import cone_member, lp_feasible

MAX_FACES = 2**12


class WeightSystem(namedtuple("WeightSystem", "dim weights")):
    """An ordered family of integer weight vectors in Z^dim.

    Duplicates and zero vectors are permitted; order matters because
    verdict certificates refer to positions.
    """

    __slots__ = ()

    def __new__(cls, dim: int, weights) -> "WeightSystem":
        if not isinstance(dim, int) or isinstance(dim, bool):
            raise InputError(f"weight dimension must be an integer, not {dim!r}")
        if dim < 1:
            raise InputError("weight dimension must be at least 1")
        weights = tuple(weights)
        if not weights:
            raise InputError("at least one weight is required")
        for i, w in enumerate(weights):
            if not isinstance(w, (list, tuple)):
                raise InputError(f"weight {i} must be a list or tuple, not {type(w).__name__}")
            if len(w) != dim:
                raise InputError(f"weight {i} has length {len(w)}, expected {dim}")
            for x in w:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"non-integer entry {x!r} in weight {i}")
        return super().__new__(cls, dim, tuple(map(tuple, weights)))

    @classmethod
    def from_rows(cls, rows) -> "WeightSystem":
        rows = [tuple(r) for r in rows]
        return cls(len(rows[0]) if rows else 1, rows)

    @property
    def n(self) -> int:
        return len(self.weights)

    def others(self, i: int) -> tuple[tuple[int, ...], ...]:
        """All weights except the one at position i."""
        self._check_index(i)
        return self.weights[:i] + self.weights[i + 1:]

    def _check_index(self, i: int) -> None:
        if not isinstance(i, int) or isinstance(i, bool) or not 0 <= i < self.n:
            raise InputError(f"index {i!r} is not a position below {self.n}")


class ConeFace(namedtuple("ConeFace", "indices witness")):
    """A face as the set of weight positions lying on it, plus a witness.

    ``indices`` and ``witness`` are int tuples.  The witness functional
    vanishes on the face's weights and is >= 1 on all the others; the
    improper face (all positions) carries the zero functional.
    """

    __slots__ = ()


class PointednessResult(namedtuple("PointednessResult", "pointed functional relation",
                                   defaults=(None, None))):
    """Strict convexity verdict with an arithmetic witness either way.

    Pointed: an integer ``functional`` >= 1 on every nonzero weight.
    Not pointed: a nonnegative rational ``relation``, supported on
    nonzero weights, summing the weights to zero.
    """

    __slots__ = ()


class EdgeConditions(namedtuple("EdgeConditions", "index excludes_vector excludes_negation "
                                "vector_membership negation_membership")):
    """Whether weight ``index``, and its negation, avoid the cone of the
    others, with the ``ConeMembership`` answer of each.

    Both must hold for every position for the affine orbit closure to
    have the separation property.
    """

    __slots__ = ()


def is_strictly_convex(ws: WeightSystem) -> PointednessResult:
    """Decide whether the weight cone is pointed (contains no line).

    A nonzero weight on the lineality face L = ``smallest_face(ws, ())``
    spans a line inside the cone, so the cone is pointed iff L holds
    only zero weights; its witness is then >= 1 on every nonzero weight.
    Otherwise L is a linear space spanned, as a cone, by its weights, so
    for its first nonzero weight w_i, -w_i is a nonnegative combination
    of the others on L, and that plus e_i is the relation: one LP.
    """
    face = smallest_face(ws, ())
    nonzero = [k for k in face.indices if not is_zero_vector(ws.weights[k])]
    if not nonzero:
        return PointednessResult(True, functional=face.witness)
    i = nonzero[0]
    lam = face_combination(ws, tuple(-x for x in ws.weights[i]), nonzero[1:])
    if lam is None:
        raise InternalError("the lineality face does not hold a negated weight")
    return PointednessResult(False, relation=lam[:i] + (Fraction(1),) + lam[i + 1:])


def face_combination(ws: WeightSystem, vector, positions) -> tuple[Fraction, ...] | None:
    """Nonnegative coefficients writing ``vector`` over the weights at
    ``positions``, as a length-n tuple that is 0 elsewhere and on zero
    weights, or None when ``vector`` is outside their cone.  One
    ``cone_member`` over the nonzero weights at ``positions``."""
    columns = [k for k in positions if not is_zero_vector(ws.weights[k])]
    membership = cone_member(vector, [ws.weights[k] for k in columns])
    if not membership.inside:
        return None
    lam = dict(zip(columns, membership.coefficients))
    return tuple(lam.get(k, Fraction(0)) for k in range(ws.n))


def edge_conditions(ws: WeightSystem, i: int) -> EdgeConditions:
    """Test weight i against the cone generated by the remaining weights.

    ``excludes_vector`` holds iff the weight itself is not a nonnegative
    rational combination of the others, ``excludes_negation`` likewise
    for its negation.  Certificates are the cone membership results.
    """
    others = ws.others(i)
    chi = ws.weights[i]
    mem_a = cone_member(chi, others)
    mem_b = cone_member(tuple(-x for x in chi), others)
    return EdgeConditions(
        index=i,
        excludes_vector=not mem_a.inside,
        excludes_negation=not mem_b.inside,
        vector_membership=mem_a,
        negation_membership=mem_b,
    )


@lru_cache(maxsize=64)
def facets(ws: WeightSystem) -> tuple[ConeFace, ...]:
    """The facets of the weight cone, sorted by normal, as faces: the
    witness is the primitive integer normal, >= 0 on every weight and
    so >= 1 off the zero set, which is the index set.

    Let r be the rank of the weights.  On the r coordinates of
    ``independent_rows`` the weights span a full-dimensional cone in
    Z^r, and a functional supported on those coordinates has the same
    dot products with the weights as its restriction.  The facet normals
    are the extreme rays of the dual cone {h : h.p >= 0 for every ray
    p}, which is pointed because the rays span Z^r.  They are found by
    double description (Motzkin et al. 1953; Fukuda & Prodon 1996):
    start from the simplicial cone of r independent rays, whose dual is
    spanned by its r facet normals (columns of the rays' inverse), then cut
    the dual by one ray at a time.  A cut keeps every normal with
    h.p >= 0 and adds the primitive positive combination of each
    adjacent pair across the hyperplane h.p = 0.  Adjacency is decided
    on tight sets (the rays on which a normal vanishes, as int
    bitmasks): two normals are adjacent iff their common tight set has
    at least r - 2 members and no third normal's tight set holds it,
    i.e. the AND of the holder masks of its rays is the pair.  A cone
    that is a linear space (this includes r = 0) has no facets.
    """
    coords = independent_rows(tuple(zip(*ws.weights)))
    r = len(coords)
    # Zero weights lie on every hyperplane, and positive multiples of one
    # ray on the same ones: the cuts run over distinct projected rays.
    rays = sorted({primitive_vector([w[c] for c in coords])
                   for w in ws.weights if not is_zero_vector(w)})
    normals = _dual_extreme_rays(rays, r) if r else []
    # Lifting with zeros off ``coords`` keeps the sorted order.
    faces = []
    for normal in sorted(normals):
        full = [0] * ws.dim
        for c, a in zip(coords, normal):
            full[c] = a
        faces.append(_check_facet(ws, tuple(full), r))
    return tuple(faces)


def _dual_extreme_rays(rays, r: int) -> list[tuple[int, ...]]:
    """Extreme rays of {h : h.p >= 0 for every p in rays}, where the
    rays span Z^r (r >= 1), by double description.  Base normal i is
    column i of the base's inverse, made primitive (0 on the other base
    rays and positive on ray i); at each cut, ``holders`` maps the bit of
    each ray to the bitmask of the normals whose tight set holds it
    (Terzer & Stelling 2008)."""
    base = independent_rows(rays)
    columns = inverse_columns([rays[k] for k in base])[0]
    cone = [(primitive_vector(h), sum(1 << k for k in base if k != i))
            for i, h in zip(base, columns)]  # (normal, tight set)
    for k, ray in enumerate(rays):
        if k in base:
            continue
        bit = 1 << k
        values = [sum(map(mul, h, ray)) for h, _ in cone]
        holders = {}
        for c, (_, tight) in enumerate(cone):
            while tight:
                low = tight & -tight
                holders[low] = holders.get(low, 0) | 1 << c
                tight ^= low
        everyone = (1 << len(cone)) - 1
        kept = [(h, tight | bit if v == 0 else tight)
                for (h, tight), v in zip(cone, values) if v >= 0]
        negatives = [(b, h, tight) for b, ((h, tight), v) in enumerate(zip(cone, values))
                     if v < 0]
        for a, (h_a, tight_a) in enumerate(cone):
            if values[a] <= 0:
                continue
            for b, h_b, tight_b in negatives:
                common = tight_a & tight_b
                if common.bit_count() < r - 2:
                    continue
                # Adjacent iff no third normal's tight set holds ``common``.
                pair, on, rest = 1 << a | 1 << b, everyone, common
                while rest and on != pair:
                    low = rest & -rest
                    on &= holders[low]
                    rest ^= low
                if on == pair:
                    h = primitive_vector([values[a] * y - values[b] * x
                                          for x, y in zip(h_a, h_b)])
                    kept.append((h, common | bit))
        cone = kept
    return [h for h, _ in cone]


def _check_facet(ws: WeightSystem, normal, r: int) -> ConeFace:
    """The facet with primitive normal ``normal``; raise unless the
    normal is >= 0 on every weight and its zero set has rank r - 1."""
    values = [dot(normal, w) for w in ws.weights]
    if min(values) < 0:
        raise InternalError("facet normal is negative on a weight")
    indices = tuple(k for k, value in enumerate(values) if value == 0)
    if rank([ws.weights[k] for k in indices]) != r - 1:
        raise InternalError("facet normal's zero set has the wrong rank")
    return ConeFace(indices, normal)


@lru_cache(maxsize=64)
def _zero_masks(ws: WeightSystem) -> tuple[int, ...]:
    """Each facet's zero set as a bitmask of positions, in ``facets`` order."""
    return tuple(sum(1 << k for k in facet.indices) for facet in facets(ws))


def smallest_face(ws: WeightSystem, positions) -> ConeFace:
    """The smallest face holding the weights at ``positions``, with its
    witness; no LP runs.  Every face of a polyhedral cone is the
    intersection of the facets containing it, so this is the common zero
    set of the facets whose zero sets hold the positions.  Their normals
    vanish on it and are >= 0 everywhere, and each position off it is
    off one of them, so their primitive sum is >= 1 there; no facet
    gives the improper face and the zero witness.  With no positions it
    is the lineality face, the positions on every facet.
    """
    mask = 0
    for i in positions:
        ws._check_index(i)
        mask |= 1 << i
    return _smallest_face_cached(ws, mask)


@lru_cache(maxsize=64)
def _smallest_face_cached(ws: WeightSystem, mask: int) -> ConeFace:
    face, normals = (1 << ws.n) - 1, [(0,) * ws.dim]
    for zero, facet in zip(_zero_masks(ws), facets(ws)):
        if zero & mask == mask:
            face &= zero
            normals.append(facet.witness)
    indices = tuple(k for k in range(ws.n) if face >> k & 1)
    witness = primitive_vector([sum(column) for column in zip(*normals)])
    if not supports_face(ws, indices, witness):
        raise InternalError("face witness fails its arithmetic check")
    return ConeFace(indices, witness)


def minimal_face(ws: WeightSystem, i: int) -> tuple[int, ...]:
    """Index set of the smallest face holding weight i, which lies in its relative interior."""
    return smallest_face(ws, (i,)).indices


def supports_face(ws: WeightSystem, indices, gamma) -> bool:
    """Whether ``gamma`` vanishes on the weights at ``indices`` and is
    >= 1 (L gamma >= L, on ints) on every other weight: a face witness."""
    inside = set(indices)
    gamma, scale = clear_denominators(gamma)
    return all(dot(gamma, w) == 0 if k in inside else dot(gamma, w) >= scale
               for k, w in enumerate(ws.weights))


def face_witness(ws: WeightSystem, indices) -> tuple[int, ...] | None:
    """Supporting functional showing ``indices`` is a face index set.

    Returns a primitive integer functional vanishing exactly on the
    given positions and >= 1 elsewhere, or None when no face of the
    cone has precisely this index set.  One LP; a single-face
    certificate independent of ``facets``.
    """
    inside = set(indices)
    eqs = [(ws.weights[k], 0) for k in sorted(inside)]
    ineqs = [(ws.weights[j], 1) for j in range(ws.n) if j not in inside]
    if not ineqs:
        return tuple([0] * ws.dim)
    res = lp_feasible(eqs, ineqs, num_vars=ws.dim)
    if not res.feasible:
        return None
    gamma = primitive_vector(res.solution)
    # Primitive rescaling keeps integer dots >= 1: a dot divisible by the
    # content and >= 1 stays >= 1 after division.
    if not supports_face(ws, inside, gamma):
        raise InternalError("face witness fails its arithmetic check")
    return gamma


@lru_cache(maxsize=64)
def enumerate_faces(ws: WeightSystem) -> tuple[ConeFace, ...]:
    """Every face, sorted by (size, index set): the closure of the facet
    zero sets under intersection, starting from the full index set.

    Each face is ``smallest_face`` of its own positions, with its
    witness.  The closure is refused once it passes ``MAX_FACES`` faces
    (n weights have at most ``2 ** n``).  Only the stratum oracle builds
    the lattice; the deciders and the verifier read the facets.
    """
    masks = {(1 << ws.n) - 1}
    for zero in _zero_masks(ws):
        masks |= {mask & zero for mask in masks}
        if len(masks) > MAX_FACES:
            raise ResourceGuardError(
                f"face enumeration exceeds the guard of {MAX_FACES} faces (MAX_FACES)")
    faces = [_smallest_face_cached(ws, mask) for mask in masks]
    faces.sort(key=lambda f: (len(f.indices), f.indices))
    _check_euler_poincare(ws, faces)
    return tuple(faces)


def _check_euler_poincare(ws: WeightSystem, faces) -> None:
    """Raise unless sum_F (-1)^(rank F - l) = 0, where l is the rank of
    the smallest face (the lineality space).

    The faces of the pointed quotient of a cone of dimension m >= 1 are
    those of an (m - 1)-polytope, shifted up by one, with the empty
    face and the polytope itself included, so the alternating sum
    vanishes.  A necessary condition only, but one a dropped facet
    rarely passes.
    """
    ranks = [rank([ws.weights[k] for k in f.indices]) for f in faces]
    low, top = ranks[0], ranks[-1]
    if top > low and sum((-1) ** (k - low) for k in ranks) != 0:
        raise InternalError("face lattice fails the Euler-Poincare relation")


@lru_cache(maxsize=64)
def homogenize(ws: WeightSystem) -> WeightSystem:
    """Append a coordinate 1 to every weight (projective-to-affine move)."""
    return WeightSystem(ws.dim + 1, tuple(w + (1,) for w in ws.weights))


_CACHED = (facets, _zero_masks, _smallest_face_cached, enumerate_faces, homogenize)


def clear_caches() -> None:
    """Empty the caches; each hit falls within one instance, so ``cli`` clears them per instance."""
    for cached in _CACHED:
        cached.cache_clear()
