"""Polyhedral structure of the cone spanned by the action's weights.

Faces are represented purely by generator index sets (which weights lie
on the face) together with a supporting integer functional as witness;
no ray canonicalisation is ever needed.  Indices are 0-based
throughout; the human-readable coordinate x{k} corresponds to position
k-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InputError, InternalError, ResourceGuardError
from .linalg import IntMatrix, dot, is_zero_vector, primitive_vector
from .lp import ConeMembership, cone_member, lp_feasible

DEFAULT_MAX_N = 12


@dataclass(frozen=True)
class WeightSystem:
    """An ordered family of integer weight vectors in Z^dim.

    Duplicates and zero vectors are permitted; order matters because
    verdict certificates refer to positions.
    """

    dim: int
    weights: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.dim < 1:
            raise InputError("weight dimension must be at least 1")
        if not self.weights:
            raise InputError("at least one weight is required")
        frozen = tuple(tuple(w) for w in self.weights)
        object.__setattr__(self, "weights", frozen)
        for i, w in enumerate(frozen):
            if len(w) != self.dim:
                raise InputError(f"weight {i} has length {len(w)}, expected {self.dim}")
            for x in w:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"non-integer entry {x!r} in weight {i}")

    @classmethod
    def from_rows(cls, rows) -> "WeightSystem":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise InputError("at least one weight is required")
        return cls(len(rows[0]), tuple(rows))

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def matrix(self) -> IntMatrix:
        """The dim x n matrix whose columns are the weights."""
        return IntMatrix.from_columns(self.weights)

    def others(self, i: int) -> tuple[tuple[int, ...], ...]:
        """All weights except the one at position i."""
        self._check_index(i)
        return self.weights[:i] + self.weights[i + 1:]

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n:
            raise InputError(f"index {i} out of range for {self.n} weights")


@dataclass(frozen=True)
class ConeFace:
    """A face as the set of weight positions lying on it, plus a witness.

    The witness functional vanishes on the face's weights and is >= 1 on
    all the others; the improper face (all positions) carries the zero
    functional.
    """

    indices: tuple[int, ...]
    witness: tuple[int, ...]


@dataclass(frozen=True)
class FaceLattice:
    """All faces of the weight cone, sorted by (size, index set)."""

    faces: tuple[ConeFace, ...]

    def __iter__(self):
        return iter(self.faces)

    def __len__(self):
        return len(self.faces)

    def index_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(f.indices for f in self.faces)


@dataclass(frozen=True)
class PointednessResult:
    """Strict convexity verdict with an arithmetic witness either way.

    Pointed: an integer functional >= 1 on every nonzero weight.
    Not pointed: a nonnegative rational relation, supported on nonzero
    weights, summing the weights to zero.
    """

    pointed: bool
    functional: tuple[int, ...] | None = None
    relation: tuple[Fraction, ...] | None = None


@dataclass(frozen=True)
class EdgeConditions:
    """Whether weight i, and its negation, avoid the cone of the others.

    Both must hold for every position for the affine orbit closure to
    have the separation property.
    """

    index: int
    excludes_vector: bool
    excludes_negation: bool
    vector_membership: ConeMembership
    negation_membership: ConeMembership


def is_strictly_convex(ws: WeightSystem) -> PointednessResult:
    """Decide whether the weight cone is pointed (contains no line)."""
    nonzero = [(i, w) for i, w in enumerate(ws.weights) if not is_zero_vector(w)]
    ineqs = [(w, 1) for _, w in nonzero]
    res = lp_feasible([], ineqs, num_vars=ws.dim)
    if res.feasible:
        gamma = primitive_vector(res.solution) if nonzero else tuple([0] * ws.dim)
        if any(dot(gamma, w) < 1 for _, w in nonzero):
            raise InternalError("pointedness functional fails its arithmetic check")
        return PointednessResult(True, functional=gamma)
    relation = [Fraction(0)] * ws.n
    for (i, _), mult in zip(nonzero, res.certificate):
        relation[i] = mult
    return PointednessResult(False, relation=tuple(relation))


def edge_conditions(ws: WeightSystem, i: int) -> EdgeConditions:
    """Test weight i against the cone generated by the remaining weights.

    ``excludes_vector`` holds iff the weight itself is not a nonnegative
    rational combination of the others, ``excludes_negation`` likewise
    for its negation.  Certificates are the cone membership results.
    """
    ws._check_index(i)
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


def minimal_face(ws: WeightSystem, i: int) -> tuple[int, ...]:
    """Index set of the smallest face containing weight i.

    Weight i lies in the relative interior of the returned face; see
    ``minimal_face_witness`` for how it is computed.
    """
    ws._check_index(i)
    return _minimal_face_cached(ws, i).indices


def minimal_face_witness(ws: WeightSystem, i: int) -> ConeFace:
    """The smallest face containing weight i, with its witness.

    Computed by accumulating supporting functionals.  Starting from an
    empty set S of positions known to lie off the face, each feasible
    LP {g.w_k >= 0 for all k, g.w_i <= 0, sum_{j not in S} g.w_j >= 1}
    yields a g vanishing on weight i and positive on some position
    outside S; every such position joins S.  Once the LP is infeasible
    (a Farkas certificate) the face is the complement of S, and the
    primitive sum of the g's vanishes on the face and is >= 1 off it.
    That takes at most ``n - |face| + 1`` LPs.
    """
    ws._check_index(i)
    return _minimal_face_cached(ws, i)


@lru_cache(maxsize=64)
def _minimal_face_cached(ws: WeightSystem, i: int) -> ConeFace:
    weights = ws.weights
    base = [(w, 0) for w in weights]
    base.append((tuple(-x for x in weights[i]), 0))
    off = set()
    total = [Fraction(0)] * ws.dim
    while True:
        # Position i never joins ``off`` (g.w_i = 0): the sum is never empty.
        rest = [w for j, w in enumerate(weights) if j not in off]
        objective = tuple(sum(col) for col in zip(*rest))
        res = lp_feasible([], base + [(objective, 1)], num_vars=ws.dim)
        if not res.feasible:
            break
        gamma = res.solution
        total = [a + b for a, b in zip(total, gamma)]
        off.update(j for j, w in enumerate(weights) if dot(gamma, w) > 0)
    face = tuple(j for j in range(ws.n) if j not in off)
    witness = primitive_vector(total)
    _check_face_witness(ws, face, witness)
    return ConeFace(face, witness)


def _check_face_witness(ws: WeightSystem, indices, gamma) -> None:
    """Raise unless ``gamma`` vanishes on ``indices`` and is >= 1 elsewhere."""
    inside = set(indices)
    for k, w in enumerate(ws.weights):
        value = dot(gamma, w)
        holds = value == 0 if k in inside else value >= 1
        if not holds:
            raise InternalError(f"face witness fails its arithmetic check at {k}")


def face_witness(ws: WeightSystem, indices) -> tuple[int, ...] | None:
    """Supporting functional showing ``indices`` is a face index set.

    Returns a primitive integer functional vanishing exactly on the
    given positions and >= 1 elsewhere, or None when no face of the
    cone has precisely this index set.
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
    _check_face_witness(ws, inside, gamma)
    return gamma


def enumerate_faces(ws: WeightSystem, max_n: int = DEFAULT_MAX_N) -> FaceLattice:
    """Complete face lattice by scanning all index subsets with one LP each.

    Exponential in n by design (certificates matter more than
    asymptotics at this scale); guarded by ``max_n``.
    """
    if ws.n > max_n:
        raise ResourceGuardError(
            f"face enumeration over 2^{ws.n} subsets exceeds the guard "
            f"(max_n={max_n}); raise it explicitly if this is intended"
        )
    return _enumerate_faces_cached(ws)


@lru_cache(maxsize=64)
def _enumerate_faces_cached(ws: WeightSystem) -> FaceLattice:
    n = ws.n
    weights = ws.weights
    zero_positions = {i for i, w in enumerate(weights) if is_zero_vector(w)}
    faces = []
    for mask in range(2 ** n - 1):
        inside = tuple(i for i in range(n) if mask >> i & 1)
        inside_set = set(inside)
        # Cheap rejects: zero weights lie on every face, and equal
        # weights always lie on the same faces.
        if not zero_positions <= inside_set:
            continue
        if any(
            weights[j] == weights[k]
            for j in range(n)
            if j not in inside_set
            for k in inside
        ):
            continue
        gamma = face_witness(ws, inside)
        if gamma is not None:
            faces.append(ConeFace(inside, gamma))
    faces.append(ConeFace(tuple(range(n)), tuple([0] * ws.dim)))
    faces.sort(key=lambda f: (len(f.indices), f.indices))
    return FaceLattice(tuple(faces))


def homogenize(ws: WeightSystem) -> WeightSystem:
    """Append a coordinate 1 to every weight (projective-to-affine move)."""
    return WeightSystem(ws.dim + 1, tuple(w + (1,) for w in ws.weights))
