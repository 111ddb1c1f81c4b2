"""Finite binomial generating systems for the defining ideal.

Every integer relation c among the weights yields a binomial
x^(c+) - x^(c-) vanishing on the orbit closure.  The generating system
is the Graver basis of the relation lattice: its nonzero elements that
are minimal in the conformal order (same signs, no larger entry in
absolute value).  Inside each octant these are the Hilbert basis of the
semigroup (relation lattice & octant), so together they generate the
ideal.  They are computed by a completion procedure (Pottier 1996),
guarded by the number of weights and the number of critical pairs.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from math import isqrt, prod

from .cones import DEFAULT_MAX_N, WeightSystem
from .errors import InputError, InternalError, ResourceGuardError
from .linalg import Vector, combine, is_zero_vector, kernel_lattice, lattice_equal

DEFAULT_MAX_NODES = 2_000_000
MAX_PRIME = 2**31 - 1


@dataclass(frozen=True, order=True)
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
        if not any(c):
            raise InputError("zero vector has no binomial")
        if next(x for x in c if x) < 0:
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
            return "*".join(f"x{k + 1}" + (f"^{e}" if e > 1 else "")
                            for k, e in enumerate(exp) if e > 0) or "1"

        return f"{monomial(self.a)} - {monomial(self.b)}"

    def __str__(self) -> str:
        return self.to_string()


def _signed(v) -> tuple[Vector, int, int]:
    """v with the bit masks of its positive and of its negative support."""
    return (v, sum(1 << i for i, x in enumerate(v) if x > 0),
            sum(1 << i for i, x in enumerate(v) if x < 0))


def _reducer(s, pos, neg, basis):
    """(sign, g) for the first g in ``basis``, other than s itself, with
    sign * g ⊑ s, or None; pos and neg are the masks of s, and g ⊑ s
    when g and s have the same signs and |g_i| <= |s_i|."""
    for g, gpos, gneg in basis:
        sign = (1 if not (gpos & ~pos or gneg & ~neg)
                else -1 if not (gpos & ~neg or gneg & ~pos) else 0)
        if sign and g is not s and all(abs(x) <= abs(y) for x, y in zip(g, s)):
            return sign, g
    return None


def _graver_basis(generators, max_nodes: int) -> tuple[Vector, ...]:
    """Graver basis of the lattice spanned by ``generators``, sorted.

    The Graver basis is the set of ⊑-minimal nonzero lattice vectors,
    each taken with a positive leading entry.  Completion (Pottier 1996):
    a spanning set G is closed under the critical vectors f +- g of its
    elements, taken by increasing 1-norm and reduced by +-G (subtracting
    elements ⊑ the vector) before joining G.  The sum of two
    sign-compatible vectors is already conformal and is never formed.
    At the end every lattice vector is a conformal sum of elements of
    +-G, so the ⊑-minimal elements of G are the Graver basis.
    ``max_nodes`` bounds the number of critical vectors formed.
    """
    basis: list[tuple[Vector, int, int]] = []
    queue: list[tuple[int, Vector]] = []
    queued: set[Vector] = set()
    formed = 0

    def admit(v):
        nonlocal formed
        r, pos, neg = _signed(tuple(v))
        while (pos or neg) and (hit := _reducer(r, pos, neg, basis)):
            r, pos, neg = _signed(tuple(x - hit[0] * y for x, y in zip(r, hit[1])))
        if not (pos or neg):
            return
        if next(x for x in r if x) < 0:
            r, pos, neg = tuple(-x for x in r), neg, pos
        for g, gpos, gneg in basis:
            for sign, clash in ((1, pos & gneg or neg & gpos),
                                (-1, pos & gpos or neg & gneg)):
                if not clash:
                    continue
                formed += 1
                if formed > max_nodes:
                    raise ResourceGuardError(
                        f"Graver completion formed more than {max_nodes} "
                        "critical pairs (max_nodes)")
                c = tuple(x + sign * y for x, y in zip(r, g))
                c = c if next(x for x in c if x) > 0 else tuple(-x for x in c)
                if c not in queued:
                    queued.add(c)
                    heapq.heappush(queue, (sum(map(abs, c)), c))
        basis.append((r, pos, neg))

    for v in generators:
        admit(v)
    while queue:
        admit(heapq.heappop(queue)[1])
    return tuple(sorted(g for g, pos, neg in basis
                        if not _reducer(g, pos, neg, basis)))


def octant_semigroup_generators(
    basis,
    positives,
    n: int,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[Vector, ...]:
    """Hilbert basis of the semigroup (relation lattice & octant).

    ``basis`` spans the relation lattice in Z^n; the octant is >= 0 on
    the positions in ``positives`` and <= 0 on the rest.  The irreducible
    elements of the semigroup are its ⊑-minimal elements, that is, the
    Graver elements (with either sign) that lie in the octant.
    """
    sigma = [1 if i in positives else -1 for i in range(n)]
    graver = _graver_basis(basis, max_nodes)
    return tuple(sorted(v for g in graver for v in (g, tuple(-x for x in g))
                        if all(s * x >= 0 for s, x in zip(sigma, v))))


def binomial_generators(
    ws: WeightSystem,
    max_n: int = DEFAULT_MAX_N,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[Binomial, ...]:
    """Finite binomial generating system for the ideal of the closure.

    The binomials of the Graver basis of the relation lattice (the union
    of the Hilbert bases of its octant semigroups).  The output is
    sorted, and its relation vectors are checked to be weight relations
    that span the full relation lattice.
    """
    if ws.n > max_n:
        raise ResourceGuardError(
            f"Graver basis completion over {ws.n} weights exceeds the guard "
            f"(max_n={max_n}); raise it explicitly if this is intended"
        )
    lattice = kernel_lattice(ws.weights)
    result = tuple(sorted(map(Binomial.from_vector, _graver_basis(lattice, max_nodes))))
    vectors = [b.vector for b in result]
    if any(any(combine(ws.weights, v)) for v in vectors):
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


def verify_vanishing(
    binomials, ws: WeightSystem, trials: int, prime: int, seed: int = 0
) -> VanishingReport:
    """Evaluate every binomial at random torus points modulo a prime.

    Each trial draws t in ((Z/p)^*)^dim, forms the point with
    coordinates x_i = prod t_r^(w_i[r]) and evaluates every binomial;
    any nonzero value is recorded as a failure (there must be none for
    a correctly generated system).  The prime must be at most
    ``MAX_PRIME``, which bounds the trial division that checks it.
    """
    if trials < 1:
        raise InputError("at least one trial is required")
    if prime > MAX_PRIME:
        raise InputError(f"prime {prime} exceeds the bound 2^31 - 1")
    if prime % 2 == 0 or prime < 3 or any(
            prime % f == 0 for f in range(3, isqrt(prime) + 1, 2)):
        raise InputError(f"{prime} is not an odd prime")
    rng = random.Random(seed)
    moduli = [prime] * ws.n
    failures = []
    for trial in range(trials):
        t = tuple(rng.randrange(1, prime) for _ in range(ws.dim))
        point = [prod(pow(base, e % (prime - 1), prime) for base, e in zip(t, w))
                 % prime for w in ws.weights]
        for binom in binomials:
            value = (prod(map(pow, point, binom.a, moduli))
                     - prod(map(pow, point, binom.b, moduli))) % prime
            if value:
                failures.append((trial, t, binom, value))
    return VanishingReport(prime, trials, seed, tuple(failures))
