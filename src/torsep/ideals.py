"""Finite binomial generating systems for the defining ideal.

Every integer relation c among the weights yields a binomial
x^(c+) - x^(c-) vanishing on the orbit closure.  A finite generating
system is assembled octant by octant: inside each sign pattern the
relation lattice meets the octant in a finitely generated semigroup,
generated by the lattice points of the zonotope spanned by the extreme
rays of the corresponding cone.  The union over all octants generates
the ideal.

The construction is exponential in the number of weights and in the
relation rank; both are guarded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .cones import DEFAULT_MAX_N, WeightSystem
from .errors import InputError, InternalError, ResourceGuardError
from .linalg import (
    IntMatrix,
    Vector,
    dot,
    is_zero_vector,
    kernel_lattice,
    lattice_equal,
    primitive_vector,
    rank,
    solve_exact,
)

DEFAULT_MAX_NODES = 2_000_000


@dataclass(frozen=True)
class Binomial:
    """x^a - x^b with disjoint supports, larger monomial first.

    Canonical sign: the exponent vector a - b has a positive leading
    nonzero entry, so c and -c produce the same binomial.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise InputError("exponent vectors must have equal length")
        for x, y in zip(self.a, self.b):
            if x < 0 or y < 0:
                raise InputError("exponents must be nonnegative")
            if x > 0 and y > 0:
                raise InputError("supports must be disjoint")

    @classmethod
    def from_vector(cls, c) -> "Binomial":
        """Binomial attached to an integer relation vector (nonzero)."""
        c = tuple(c)
        lead = next((x for x in c if x != 0), None)
        if lead is None:
            raise InputError("zero vector has no binomial")
        if lead < 0:
            c = tuple(-x for x in c)
        return cls(
            tuple(x if x > 0 else 0 for x in c),
            tuple(-x if x < 0 else 0 for x in c),
        )

    @property
    def vector(self) -> tuple[int, ...]:
        """The relation a - b."""
        return tuple(x - y for x, y in zip(self.a, self.b))

    def to_string(self) -> str:
        """Human-readable form such as 'x1^3*x3 - x2*x5^2'."""
        def monomial(exp):
            factors = [
                f"x{k + 1}" + (f"^{e}" if e > 1 else "")
                for k, e in enumerate(exp)
                if e > 0
            ]
            return "*".join(factors) if factors else "1"

        return f"{monomial(self.a)} - {monomial(self.b)}"

    def __str__(self) -> str:
        return self.to_string()


@dataclass(frozen=True)
class Octant:
    """Sign pattern: coordinates in ``positives`` are constrained >= 0,
    all others <= 0."""

    positives: tuple[int, ...]


def _fraction_kernel_generator(rows, dim):
    """Primitive generator of the nullspace of ``rows`` in Q^dim when it
    is one-dimensional, else None."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [a * inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    if dim - r != 1:
        return None
    free = next(c for c in range(dim) if c not in pivots)
    gen = [Fraction(0)] * dim
    gen[free] = Fraction(1)
    for row_i, col_i in enumerate(pivots):
        gen[col_i] = -mat[row_i][free]
    return primitive_vector(gen)


def _extreme_rays(constraints, dim):
    """Extreme rays of the pointed cone {t : h @ t >= 0 for h in constraints}.

    The constraint matrix must have full column rank (which makes the
    cone pointed); each ray is the kernel of dim-1 constraint rows.
    """
    rays = set()
    for subset in combinations(constraints, dim - 1):
        gen = _fraction_kernel_generator(subset, dim)
        if gen is None:
            continue
        for cand in (gen, tuple(-x for x in gen)):
            if all(dot(h, cand) >= 0 for h in constraints):
                rays.add(cand)
                break
    return sorted(rays)


def _saturated_span_basis(rays, dim):
    """Basis of the saturation span(rays) & Z^dim, via a double kernel."""
    ortho = kernel_lattice(IntMatrix(tuple(tuple(r) for r in rays)))
    if not ortho:
        return tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return kernel_lattice(IntMatrix(tuple(tuple(y) for y in ortho)))


def _zonotope_lattice_points(rays, dim, max_nodes):
    """All integer points of {sum s_j r_j : 0 <= s_j <= 1}, zero included.

    The rays must span Q^dim.  Points are found by depth-first search
    over coordinates, pruned with the zonotope's two-sided facet
    inequalities (support-function bounds over kernels of dim-1 ray
    subsets), which describe the zonotope exactly.
    """
    normals = set()
    for subset in combinations(rays, dim - 1):
        nu = _fraction_kernel_generator(subset, dim)
        if nu is None:
            continue
        lead = next(x for x in nu if x != 0)
        if lead < 0:
            nu = tuple(-x for x in nu)
        normals.add(nu)
    bounded = []
    for nu in sorted(normals):
        values = [dot(nu, r) for r in rays]
        lo = sum(v for v in values if v < 0)
        hi = sum(v for v in values if v > 0)
        bounded.append((nu, lo, hi))
    if not bounded:
        raise InternalError("rays were expected to span the working space")

    box_lo = [sum(min(0, r[i]) for r in rays) for i in range(dim)]
    box_hi = [sum(max(0, r[i]) for r in rays) for i in range(dim)]

    # Per-normal interval contributions of each still-free coordinate.
    contrib = []
    for nu, lo, hi in bounded:
        mins = [min(nu[i] * box_lo[i], nu[i] * box_hi[i]) for i in range(dim)]
        maxs = [max(nu[i] * box_lo[i], nu[i] * box_hi[i]) for i in range(dim)]
        suffix_min = [0] * (dim + 1)
        suffix_max = [0] * (dim + 1)
        for i in range(dim - 1, -1, -1):
            suffix_min[i] = suffix_min[i + 1] + mins[i]
            suffix_max[i] = suffix_max[i + 1] + maxs[i]
        contrib.append((nu, lo, hi, suffix_min, suffix_max))

    points = []
    point = [0] * dim
    nodes = 0

    def descend(depth, partials):
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceGuardError(
                f"zonotope lattice-point search exceeded {max_nodes} nodes"
            )
        if depth == dim:
            points.append(tuple(point))
            return
        for value in range(box_lo[depth], box_hi[depth] + 1):
            point[depth] = value
            nxt = []
            ok = True
            for (nu, lo, hi, smin, smax), part in zip(contrib, partials):
                part = part + nu[depth] * value
                if part + smin[depth + 1] > hi or part + smax[depth + 1] < lo:
                    ok = False
                    break
                nxt.append(part)
            if ok:
                descend(depth + 1, nxt)

    descend(0, [0] * len(contrib))
    return points


def octant_semigroup_generators(
    basis,
    octant: Octant | tuple | frozenset,
    n: int,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[Vector, ...]:
    """Finite generating set of the semigroup (relation lattice & octant).

    ``basis`` is an integer basis of the relation lattice in Z^n;
    ``octant`` gives the coordinates constrained >= 0 (the rest <= 0).
    Extreme rays of the octant cone are computed first (primitive in the
    lattice, not in Z^n); the returned set is every nonzero lattice
    point of the zonotope they span that lies in the octant, and every
    element of the semigroup is a nonnegative integer combination of it.
    """
    positives = set(octant.positives if isinstance(octant, Octant) else octant)
    basis = [tuple(v) for v in basis]
    m = len(basis)
    if m == 0:
        return ()
    sigma = [1 if i in positives else -1 for i in range(n)]
    # Constraint rows in lattice coordinates: sign * (coefficients of
    # coordinate i across the basis vectors).
    constraints = [
        tuple(sigma[i] * basis[r][i] for r in range(m)) for i in range(n)
    ]
    rays = _extreme_rays(constraints, m)
    if not rays:
        return ()

    span_rank = rank(IntMatrix(tuple(tuple(r) for r in rays)))
    if span_rank < m:
        sub_basis = _saturated_span_basis(rays, m)
        if len(sub_basis) != span_rank:
            raise InternalError("saturated span basis has the wrong rank")
        columns = [[sub_basis[j][r] for j in range(span_rank)] for r in range(m)]
        work_rays = []
        for ray in rays:
            coords = solve_exact(columns, ray)
            if coords is None or any(f.denominator != 1 for f in coords):
                raise InternalError("ray has no integer coordinates in the span basis")
            work_rays.append(tuple(int(f) for f in coords))
        lift = sub_basis
        work_dim = span_rank
    else:
        work_rays = rays
        lift = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        work_dim = m

    generators = []
    for coords in _zonotope_lattice_points(work_rays, work_dim, max_nodes):
        if all(c == 0 for c in coords):
            continue
        t = tuple(
            sum(coords[j] * lift[j][r] for j in range(work_dim)) for r in range(m)
        )
        x = tuple(sum(basis[r][i] * t[r] for r in range(m)) for i in range(n))
        if any(sigma[i] * x[i] < 0 for i in range(n)):
            raise InternalError("zonotope point escaped its octant")
        generators.append(x)
    return tuple(sorted(generators))


def binomial_generators(
    ws: WeightSystem,
    max_n: int = DEFAULT_MAX_N,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[Binomial, ...]:
    """Finite binomial generating system for the ideal of the closure.

    Union of the per-octant semigroup generators over all sign patterns
    (opposite octants merge under the canonical binomial sign).  The
    output is sorted, deduplicated, and its relation vectors are checked
    to span the full relation lattice.
    """
    if ws.n > max_n:
        raise ResourceGuardError(
            f"octant scan over 2^{ws.n} sign patterns exceeds the guard "
            f"(max_n={max_n}); raise it explicitly if this is intended"
        )
    lattice = kernel_lattice(ws.matrix)
    if not lattice:
        return ()
    n = ws.n
    seen: set[Binomial] = set()
    rest = list(range(1, n))
    # Octants come in opposite pairs producing identical binomials, so
    # only the patterns containing coordinate 0 are scanned.
    for size in range(len(rest) + 1):
        for extra in combinations(rest, size):
            positives = (0,) + extra
            for vec in octant_semigroup_generators(
                lattice, positives, n, max_nodes=max_nodes
            ):
                seen.add(Binomial.from_vector(vec))
    result = tuple(sorted(seen, key=lambda b: (b.a, b.b)))
    vectors = [b.vector for b in result]
    for vec in vectors:
        if any(x != 0 for x in ws.matrix.mul_vector(vec)):
            raise InternalError("emitted binomial is not a weight relation")
    if not lattice_equal(vectors, lattice):
        raise InternalError("binomial relation vectors do not span the lattice")
    return result


@dataclass(frozen=True)
class ScanResult:
    """Outcome of scanning a generating system for SP-violating shapes.

    Form 1 is a monomial equal to 1 (a relation with no negative part);
    form 2 is a pure power of one coordinate equal to a monomial in the
    others.  Either shape in a generating system is equivalent to the
    failure of SP for the closure it defines (with at least two
    coordinates present).
    """

    violating: bool
    binomial: Binomial | None = None
    form: int | None = None


def sp_violation_scan(binomials) -> ScanResult:
    """Scan binomials for the two SP-violating shapes."""
    for binom in binomials:
        if is_zero_vector(binom.b):
            return ScanResult(True, binom, 1)
    for binom in binomials:
        support_a = sum(1 for x in binom.a if x > 0)
        support_b = sum(1 for x in binom.b if x > 0)
        if support_a == 1 or support_b == 1:
            return ScanResult(True, binom, 2)
    return ScanResult(False)


@dataclass(frozen=True)
class VanishingReport:
    """Result of sampling binomials on parametrized points mod a prime."""

    prime: int
    trials: int
    seed: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def verify_vanishing(
    binomials, ws: WeightSystem, trials: int, prime: int, seed: int = 0
) -> VanishingReport:
    """Evaluate every binomial at random torus points modulo a prime.

    Each trial draws t in ((Z/p)^*)^dim, forms the point with
    coordinates x_i = prod t_r^(w_i[r]) and evaluates every binomial;
    any nonzero value is recorded as a failure (there must be none for
    a correctly generated system).
    """
    if trials < 1:
        raise InputError("at least one trial is required")
    if prime <= 2 or not _is_prime(prime):
        raise InputError(f"{prime} is not an odd prime")
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        t = tuple(rng.randrange(1, prime) for _ in range(ws.dim))
        point = []
        for w in ws.weights:
            value = 1
            for base, e in zip(t, w):
                value = value * pow(base, e % (prime - 1), prime) % prime
            point.append(value)
        for binom in binomials:
            lhs = 1
            rhs = 1
            for x, ea, eb in zip(point, binom.a, binom.b):
                if ea:
                    lhs = lhs * pow(x, ea, prime) % prime
                if eb:
                    rhs = rhs * pow(x, eb, prime) % prime
            if (lhs - rhs) % prime != 0:
                failures.append((trial, t, binom, (lhs - rhs) % prime))
    return VanishingReport(prime, trials, seed, tuple(failures))
