"""Finite binomial generating systems for the defining ideal.

Every integer relation c among the weights yields a binomial
x^(c+) - x^(c-) vanishing on the orbit closure.  The generating system
is the Graver basis of the relation lattice: its nonzero elements that
are minimal in the conformal order (same signs, no larger entry in
absolute value).  Inside each octant these are the Hilbert basis of the
semigroup (relation lattice & octant), so together they generate the
ideal.  They are computed by project-and-lift (Hemmecke 2003): a
completion over critical pairs on the pivot coordinates of the lattice,
then one per further coordinate, reducing through an index keyed by
sign masks; guarded by the number of weights and of critical pairs.
"""

from __future__ import annotations

import heapq
import random
from collections import namedtuple
from itertools import count
from math import isqrt, prod
from operator import add, le, neg, sub

from .cones import WeightSystem
from .errors import InputError, InternalError, ResourceGuardError
from .linalg import Vector, combine, count_nonrelations, kernel_lattice, lattice_equal, row_hnf

MAX_NODES = 2_000_000
MAX_WEIGHTS = 12
MAX_PRIME = 2**31 - 1


class Binomial(namedtuple("Binomial", "a b")):
    """x^a - x^b with disjoint supports, larger monomial first; binomials
    sort by (a, b).

    Canonical sign: the exponent vector a - b has a positive leading
    nonzero entry, so c and -c produce the same binomial.
    """

    __slots__ = ()

    def __new__(cls, a, b) -> "Binomial":
        if len(a) != len(b):
            raise InputError("exponent vectors must have equal length")
        for x, y in zip(a, b):
            if x < 0 or y < 0:
                raise InputError("exponents must be nonnegative")
            if x > 0 and y > 0:
                raise InputError("supports must be disjoint")
        return super().__new__(cls, a, b)

    @classmethod
    def from_vector(cls, c) -> "Binomial":
        """Binomial attached to an integer relation vector (nonzero).

        Its split is disjoint and nonnegative by construction, so the
        record is built without ``__new__``'s per-entry checks."""
        c = tuple(c)
        if not any(c):
            raise InputError("zero vector has no binomial")
        if next(x for x in c if x) < 0:
            c = tuple(-x for x in c)
        return cls._make((tuple(x if x > 0 else 0 for x in c),
                          tuple(-x if x < 0 else 0 for x in c)))

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


def _complete(generators, active, lifted, formed):
    """⊑-minimal elements, on the ``active`` coordinates, of a set that
    holds ``generators`` and is closed under the critical vectors f +- g
    whose signs clash on ``active`` but not on ``lifted`` (masks).

    Critical vectors are taken by increasing active 1-norm and reduced
    by +-G before joining G; only elements with support off ``lifted``
    can clash there.  ``formed`` counts them over all calls, up to
    ``MAX_NODES``.  When no two generators clash the generators are
    returned as given.

    The code of v has bit i (n + i) set where v_i > 0 (< 0), i active, so
    g ⊑ v there iff the code of g is a submask of that of v and no |g_i|
    exceeds |v_i|.  ``index`` maps the code of each +-g to (the operator
    that takes +-g off, |g| on ``active``, g), searched from a code down
    its submasks (cf. the support tree of Hemmecke & Malkin 2009).
    """
    n = len(generators[0])
    zero, low, fixed = (0,) * n, (1 << n) - 1, lifted | lifted << n
    bits = [(i, 1 << i, 1 << n + i) for i in range(n) if active >> i & 1]
    basis, movers, queue, queued, index = [], [], [], set(), {}
    push, pop, lookup = heapq.heappush, heapq.heappop, index.get

    def signed(v):  # the code of v and |v| on ``active``
        code, size = 0, []
        for i, positive, negative in bits:
            if (x := v[i]) < 0:
                code, x = code | negative, -x
            elif x:
                code |= positive
            size.append(x)
        return code, size

    def reducer(s, code, size):  # the ``index`` entry of a +-g ⊑ s, g not s, or None
        mask = code
        while mask:
            for hit in lookup(mask, ()):
                if hit[2] is not s and all(map(le, hit[1], size)):
                    return hit
            mask = (mask - 1) & code
        return None

    def pair(c):
        if next(formed) > MAX_NODES:
            raise ResourceGuardError(
                f"Graver completion formed more than {MAX_NODES} critical pairs (MAX_NODES)")
        c = tuple(map(neg, c)) if c < zero else c
        if c not in queued:
            queued.add(c)
            code, size = signed(c)
            push(queue, (sum(size), c, code, size))

    def join(r, code, size):
        flip = code >> n | (code & low) << n
        # f + g (f - g) clashes where the codes of f and -g (g) meet.
        if code & ~fixed:
            for g, gcode, gflip in movers:
                if (cross := code & gflip) and not cross & fixed:
                    pair(tuple(map(add, r, g)))
                if (same := code & gcode) and not same & fixed:
                    pair(tuple(map(sub, r, g)))
            movers.append((r, code, flip))
        basis.append((r, code, size))
        index.setdefault(code, []).append((sub, size, r))
        index.setdefault(flip, []).append((add, size, r))

    # Hermite rows on their pivots, and Graver elements of the previous
    # projection, are ⊑-minimal there: they join unreduced and stay.
    for v in generators:
        join(v, *signed(v))
    if not queue:
        return generators
    while queue:
        _, r, code, size = pop(queue)
        while code and (hit := reducer(r, code, size)):
            r = tuple(map(hit[0], r, hit[2]))
            code, size = signed(r)
        if code:
            if r < zero:  # -r has the same sizes and the opposite code
                r, code = tuple(map(neg, r)), code >> n | (code & low) << n
            join(r, code, size)
    return [g for k, (g, code, size) in enumerate(basis)
            if k < len(generators) or not reducer(g, code, size)]


def _graver_basis(lattice) -> tuple[Vector, ...]:
    """Sorted Graver basis of a lattice given in Hermite form (``row_hnf``,
    ``kernel_lattice``): ⊑-minimal nonzero vectors, positive leading entry.

    Project-and-lift (Hemmecke 2003).  In Hermite form the lattice
    projects injectively onto the pivot coordinates.  The completion of
    the rows there, over every clashing pair, is the Graver basis of
    that projection (one row is its own).  The other coordinates j are
    lifted one at a time: the basis so far generates the next
    projection, and f +- g is formed only when f and +-g agree in sign
    on the coordinates already lifted and are strictly opposite at j.
    ``MAX_NODES`` bounds the critical vectors formed, summed over all
    lifts.
    """
    graver, formed = lattice, count(1)
    lifted, active = 0, sum(1 << next(i for i, x in enumerate(row) if x) for row in graver)
    while len(graver) > 1 and lifted != (1 << len(graver[0])) - 1:
        graver = _complete(graver, active, lifted, formed)
        lifted, active = active, active | (active + 1)
    return tuple(sorted(graver))


def octant_semigroup_generators(basis, positives, n: int) -> tuple[Vector, ...]:
    """Hilbert basis of the semigroup (relation lattice & octant).

    ``basis`` spans the relation lattice in Z^n; the octant is >= 0 on
    the positions in ``positives`` and <= 0 on the rest.  The irreducible
    elements of the semigroup are its ⊑-minimal elements, that is, the
    Graver elements (with either sign) that lie in the octant.
    """
    sigma = [1 if i in positives else -1 for i in range(n)]
    graver = _graver_basis(row_hnf(basis))
    return tuple(sorted(v for g in graver for v in (g, tuple(-x for x in g))
                        if all(s * x >= 0 for s, x in zip(sigma, v))))


def binomial_generators(ws: WeightSystem) -> tuple[Binomial, ...]:
    """Finite binomial generating system for the ideal of the closure.

    The binomials of the Graver basis of the relation lattice (the union
    of the Hilbert bases of its octant semigroups).  The output is
    sorted, and its relation vectors are checked to be weight relations
    that span the full relation lattice.
    """
    if ws.n > MAX_WEIGHTS:
        raise ResourceGuardError(f"Graver basis completion over {ws.n} weights exceeds the "
                                 f"guard of {MAX_WEIGHTS} weights (MAX_WEIGHTS)")
    lattice = kernel_lattice(ws.weights)
    graver = _graver_basis(lattice)
    if count_nonrelations(ws.weights, graver):
        raise InternalError("emitted binomial is not a weight relation")
    if not lattice_equal(graver, lattice):
        raise InternalError("binomial relation vectors do not span the lattice")
    return tuple(sorted(map(Binomial.from_vector, graver)))


class ScanResult(namedtuple("ScanResult", "violating binomial form", defaults=(None, None))):
    """Outcome of scanning a generating system for SP-violating shapes.

    Form 1 is a monomial equal to 1 (a relation with no negative part);
    form 2 is a pure power of one coordinate equal to a monomial in the
    others.  Either shape in a generating system is equivalent to the
    failure of SP for the closure it defines (with at least two
    coordinates present).
    """

    __slots__ = ()


def sp_violation_scan(binomials) -> ScanResult:
    """Scan binomials for the two SP-violating shapes."""
    for binom in binomials:
        if not any(binom.b):
            return ScanResult(True, binom, 1)
    for binom in binomials:  # exponents are nonnegative: nonzero means positive
        if 1 in (sum(map(bool, binom.a)), sum(map(bool, binom.b))):
            return ScanResult(True, binom, 2)
    return ScanResult(False)


class VanishingReport(namedtuple("VanishingReport", "prime trials seed failures")):
    """Result of sampling binomials on parametrized points mod a prime."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_vanishing(
    binomials, ws: WeightSystem, trials: int, prime: int, seed: int = 0
) -> VanishingReport:
    """Evaluate, at random torus points modulo a prime, the binomials
    that can fail there.

    Each trial draws t in ((Z/p)^*)^dim, forms the point with
    coordinates x_i = prod t_r^(w_i[r]) and evaluates the kept binomials
    there; a nonzero value is a failure.  The prime is at most
    ``MAX_PRIME``, which bounds the trial division that checks it.

    A binomial is kept iff its relation (a - b)W is nonzero mod p - 1 in
    some coordinate; with none kept (as for ``binomial_generators``) no
    point is drawn.  Every t_r is a unit, so x^a is prod_r t_r^((aW)_r)
    and by Fermat only exponents mod p - 1 count: a skipped binomial is 0
    at every point, and the failures are those of evaluating them all.
    """
    if trials < 1:
        raise InputError("at least one trial is required")
    if prime > MAX_PRIME:
        raise InputError(f"prime {prime} exceeds the bound 2^31 - 1")
    if prime % 2 == 0 or prime < 3 or any(
            prime % f == 0 for f in range(3, isqrt(prime) + 1, 2)):
        raise InputError(f"{prime} is not an odd prime")
    binomials = tuple(binomials)
    if any(len(binom.a) != ws.n for binom in binomials):
        raise InputError(f"a binomial's length is not the number of weights, {ws.n}")
    binomials = tuple(binom for binom in binomials
                      if any(x % (prime - 1) for x in combine(ws.weights, binom.vector)))
    if not binomials:
        return VanishingReport(prime, trials, seed, ())
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        t = tuple(rng.randrange(1, prime) for _ in range(ws.dim))
        point = [prod(pow(t_r, e % (prime - 1), prime) for t_r, e in zip(t, w)) % prime
                 for w in ws.weights]
        for binom in binomials:
            value = (prod(pow(x, e, prime) for x, e in zip(point, binom.a))
                     - prod(pow(x, e, prime) for x, e in zip(point, binom.b))) % prime
            if value:
                failures.append((trial, t, binom, value))
    return VanishingReport(prime, trials, seed, tuple(failures))
