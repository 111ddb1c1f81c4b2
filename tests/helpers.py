"""Shared helpers for the test suite: random instances, brute-force
oracles, and small transformation utilities."""

from __future__ import annotations

import heapq
import os
import random
from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod
from pathlib import Path
from unittest import mock

from torsep import cones, lp, verification
from torsep.cones import (
    ConeFace,
    WeightSystem,
    edge_conditions,
    enumerate_faces,
    face_witness,
    homogenize,
)
from torsep.errors import HypothesisError, ResourceGuardError
from torsep.linalg import (
    Vector,
    combine,
    dot,
    independent_rows,
    is_zero_vector,
    kernel_lattice,
    primitive_vector,
    rank,
    solve_exact,
)
from torsep.lp import FeasibilityResult, lp_feasible
from torsep.separation import decide
from torsep.strata import SspWitness, oracle_sp, oracle_wsp, strata
from torsep.verdict import Verdict, vacuous
from torsep.verification import check_verdict

# Golden weight systems used across modules.
M_WEIGHTS = WeightSystem.from_rows([[1, 1], [2, 0], [0, 2]])
N_WEIGHTS = WeightSystem.from_rows([[1, 0, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]])
FIVE_WEIGHTS = WeightSystem.from_rows(
    [[1, 0, 0], [1, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1]]
)
QUARTET_WEIGHTS = WeightSystem.from_rows([[1, 2], [1, 1], [3, 0], [0, 2]])


def golden_verdicts():
    """(weights, verdict) for every decider and oracle verdict, in both
    modes, of the golden systems and a few small degenerate ones."""
    systems = [M_WEIGHTS, N_WEIGHTS, FIVE_WEIGHTS, QUARTET_WEIGHTS,
               WeightSystem.from_rows([[1], [0]]),
               WeightSystem.from_rows([[1], [-1]]),
               WeightSystem.from_rows([[1, 0], [2, 0], [0, 1]]),
               WeightSystem.from_rows([[2, 1]])]
    for ws in systems:
        for mode in ("affine", "projective"):
            for prop in ("SP", "WSP", "SSP"):
                try:
                    yield ws, decide(ws, prop, mode)
                except HypothesisError:
                    pass
            target = homogenize(ws) if mode == "projective" else ws
            for oracle in (oracle_sp, oracle_wsp):
                v = oracle(target)
                yield ws, Verdict(v.property_name, mode, v.holds, v.certificate)


def fuzz_oracle_verdicts(seed: int, count: int):
    """(weights, verdict) for both stratum oracles, in both modes, on
    ``count`` seeded ``fuzz_weights`` draws with d <= 4 and n <= 7."""
    rng = random.Random(seed)
    for _ in range(count):
        ws = fuzz_weights(rng, rng.randint(1, 4), rng.randint(1, 7), rng.choice((2, 50)))
        for mode in ("affine", "projective"):
            target = homogenize(ws) if mode == "projective" else ws
            for oracle in (oracle_sp, oracle_wsp):
                v = oracle(target)
                yield ws, Verdict(v.property_name, mode, v.holds, v.certificate)


def subprocess_env():
    """The environment for ``python -m torsep`` on this checkout's source,
    without a seed from the caller's environment."""
    env = {k: v for k, v in os.environ.items() if k != "TORSEP_SEED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def random_weights(rng: random.Random, d: int, n: int, bound: int = 2) -> WeightSystem:
    return WeightSystem(
        d, tuple(tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(n))
    )


def fuzz_weights(rng: random.Random, d: int, n: int, bound: int) -> WeightSystem:
    """Seeded weights covering the cases the routes treat apart: zero
    weights, duplicates, positive multiples, nonnegative (pointed) and
    signed draws, and rank-deficient draws (last coordinate a copy of
    the first).  Entries stay within +-bound."""
    low = rng.choice((0, -bound))
    flat = d > 1 and rng.random() < 0.2
    rows = []
    for _ in range(n):
        roll = rng.random()
        if rows and roll < 0.1:
            rows.append(rng.choice(rows))
        elif rows and roll < 0.2:
            w = rng.choice(rows)
            rows.append(tuple(2 * x for x in w) if 2 * max(map(abs, w)) <= bound else w)
        elif roll < 0.3:
            rows.append((0,) * d)
        else:
            w = [rng.randint(low, bound) for _ in range(d)]
            if flat:
                w[-1] = w[0]
            rows.append(tuple(w))
    return WeightSystem(d, tuple(rows))


def shrink(ws: WeightSystem, disagreement) -> WeightSystem:
    """Greedily drop weights and halve the entries of one weight (toward
    zero) while ``disagreement`` still reports something; return the
    smallest instance reached."""
    def halve(x):
        return x // 2 if x >= 0 else -(-x // 2)

    while True:
        rows = ws.weights
        candidates = [rows[:k] + rows[k + 1:] for k in range(len(rows))] if len(rows) > 1 else []
        candidates += [rows[:k] + (tuple(map(halve, rows[k])),) + rows[k + 1:]
                       for k in range(len(rows)) if any(rows[k])]
        smaller = next((WeightSystem(ws.dim, c) for c in candidates
                        if disagreement(WeightSystem(ws.dim, c))), None)
        if smaller is None:
            return ws
        ws = smaller


def random_suite(seed: int, count: int, dims=(1, 2, 3), sizes=(1, 2, 3, 4, 5, 6)):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_weights(rng, rng.choice(dims), rng.choice(sizes)))
    return out


def brute_force_kernel_vectors(vectors, bound: int = 3):
    """All integer relations c (sum_k c_k v_k = 0) with sup-norm <= bound,
    by enumeration."""
    n = len(vectors)
    found = []
    for c in product(range(-bound, bound + 1), repeat=n):
        if all(x == 0 for x in combine(vectors, c)):
            found.append(c)
    return found


def brute_force_graver(vectors, bound: int = 3):
    """Graver basis elements with sup-norm <= bound, by enumeration.

    The nonzero kernel vectors of the box that are minimal in the
    conformal order (same signs, entrywise no larger in absolute value),
    one of each +-pair, sorted.  Every vector conformally below a box
    vector lies in the box, so this is exactly the part of the Graver
    basis inside the box.
    """
    box = [c for c in brute_force_kernel_vectors(vectors, bound) if any(c)]

    def below(h, g):
        return h != g and all(x * y >= 0 and abs(x) <= abs(y) for x, y in zip(h, g))

    return sorted(g for g in box if next(x for x in g if x) > 0
                  and not any(below(h, g) for h in box))


def brute_force_cone_member(v, gens) -> bool:
    """Exact cone membership through independent-subset solves.

    A vector in the cone is a nonnegative combination of some linearly
    independent subset of the generators, so scanning all such subsets
    decides membership without any LP machinery.
    """
    d = len(v)
    if all(x == 0 for x in v):
        return True
    gens = [tuple(g) for g in gens]
    for size in range(1, d + 1):
        for subset in combinations(gens, size):
            if rank(subset) != size:
                continue
            sol = solve_exact([list(row) for row in zip(*subset)], v)
            if sol is not None and all(x >= 0 for x in sol):
                return True
    return False


def leibniz_determinant(rows) -> int:
    """Determinant as the signed sum over all permutations (no elimination)."""
    total = 0
    for perm in permutations(range(len(rows))):
        term = prod(row[p] for row, p in zip(rows, perm))
        if term:
            inversions = sum(a > b for a, b in combinations(perm, 2))
            total += -term if inversions % 2 else term
    return total


def minors(rows, k):
    """All k x k minors of a matrix, by the Leibniz formula."""
    for ri in combinations(range(len(rows)), k):
        for ci in combinations(range(len(rows[0])), k):
            yield leibniz_determinant([[rows[r][c] for c in ci] for r in ri])


def minor_rank(rows) -> int:
    """The largest k such that some k x k minor is nonzero."""
    for k in range(min(len(rows), len(rows[0])), 0, -1):
        if any(minors(rows, k)):
            return k
    return 0


def greedy_independent_rows(rows) -> tuple[int, ...]:
    """Indices of rows, in order, that raise the minor rank of those before."""
    chosen: list[int] = []
    for i in range(len(rows)):
        if minor_rank([rows[j] for j in chosen + [i]]) == len(chosen) + 1:
            chosen.append(i)
    return tuple(chosen)


def random_unimodular(rng: random.Random, d: int, steps: int = 6):
    """Random GL(d, Z) matrix as a product of elementary operations."""
    mat = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.randrange(d), rng.randrange(d)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(d):
                mat[i][k] += c * mat[j][k]
        elif kind == 1:
            mat[i], mat[j] = mat[j], mat[i]
        else:
            mat[i] = [-x for x in mat[i]]
    return mat


def apply_unimodular(ws: WeightSystem, mat) -> WeightSystem:
    d = ws.dim
    new = []
    for w in ws.weights:
        new.append(tuple(sum(mat[r][k] * w[k] for k in range(d)) for r in range(d)))
    return WeightSystem(d, tuple(new))


def permute_weights(ws: WeightSystem, perm) -> WeightSystem:
    return WeightSystem(ws.dim, tuple(ws.weights[p] for p in perm))


def clear_cone_caches():
    """Empty every facet and face cache of ``torsep.cones``."""
    for value in vars(cones).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def facet_rays(ws: WeightSystem):
    """The distinct primitive rays that ``cones.facets`` cuts by, and the
    rank r of the weights: the nonzero weights on the coordinates of
    ``independent_rows``."""
    coords = independent_rows(tuple(zip(*ws.weights)))
    rays = sorted({primitive_vector([w[c] for c in coords])
                   for w in ws.weights if not is_zero_vector(w)})
    return rays, len(coords)


def reference_base_normals(rays) -> list[Vector]:
    """The base normals double description started from before
    ``linalg.inverse_columns``: for each base ray i (``independent_rows``),
    the kernel vector of the other base rays (``(1,)`` when there are
    none), negated unless it is positive on ray i."""
    base = independent_rows(rays)
    normals = []
    for i in base:
        others = [rays[k] for k in base if k != i]
        h = kernel_lattice(tuple(zip(*others)))[0] if others else (1,)
        normals.append(h if dot(h, rays[i]) > 0 else tuple(-x for x in h))
    return normals


def reference_dual_extreme_rays(rays, r: int) -> list[Vector]:
    """The double description of ``cones._dual_extreme_rays`` with its
    plainest parts: each base normal is a column of the inverse of the
    base (a ``Fraction`` solve, made primitive), and two normals are
    adjacent iff their common tight set has at least r - 2 members and
    no third normal's tight set contains it, tested by a scan over every
    other normal.  Normals come out in the same order."""
    base = independent_rows(rays)
    cone = [(primitive_vector(solve_exact([rays[k] for k in base],
                                          [int(j == i) for j in range(r)])),
             sum(1 << k for k in base if k != base[i]))
            for i in range(r)]
    for k, ray in enumerate(rays):
        if k in base:
            continue
        values = [sum(x * y for x, y in zip(h, ray)) for h, _ in cone]
        kept = [(h, tight | 1 << k if v == 0 else tight)
                for (h, tight), v in zip(cone, values) if v >= 0]
        for a, (h_a, tight_a) in enumerate(cone):
            for b, (h_b, tight_b) in enumerate(cone):
                if values[a] <= 0 or values[b] >= 0:
                    continue
                common = tight_a & tight_b
                if common.bit_count() < r - 2 or any(
                        common & tight == common
                        for c, (_, tight) in enumerate(cone) if c not in (a, b)):
                    continue
                kept.append((primitive_vector([Fraction(values[a] * y - values[b] * x)
                                               for x, y in zip(h_a, h_b)]),
                             common | 1 << k))
        cone = kept
    return [h for h, _ in cone]


def brute_force_faces(ws: WeightSystem):
    """Face index sets of the weight cone with their witnesses, sorted by
    (size, index set), by scanning every index subset with one
    ``face_witness`` LP each.

    Two sound rejects skip LPs: zero weights lie on every face, and
    equal weights lie on the same faces.
    """
    n, weights = ws.n, ws.weights
    zeros = {i for i, w in enumerate(weights) if is_zero_vector(w)}
    faces = []
    for mask in range(2 ** n):
        inside = tuple(i for i in range(n) if mask >> i & 1)
        if not zeros <= set(inside):
            continue
        if any(weights[j] == weights[k] for j in range(n) if j not in inside
               for k in inside):
            continue
        gamma = face_witness(ws, inside)
        if gamma is not None:
            faces.append((inside, gamma))
    faces.sort(key=lambda f: (len(f[0]), f[0]))
    return faces


def reference_affine_sp(ws: WeightSystem) -> Verdict:
    """Affine SP by testing every position i in order: neither w_i nor
    -w_i may be a nonnegative combination of the other weights.  Two
    ``cone_member`` LPs per position.  The verdict is the reference, and
    a failure carries the first failing position's certificate.  A
    holding verdict carries its kind alone: the LPs' separating
    functionals are not the face witnesses that ``edge-separation``
    holds on, and tests compare only ``holds`` and ``kind`` of a holding
    verdict."""
    if ws.n == 1:
        return vacuous("SP", "affine")

    def sanitize(coefficients, i):
        lam = list(coefficients)
        lam.insert(i, Fraction(0))
        return [Fraction(0) if is_zero_vector(ws.weights[k]) else lam[k]
                for k in range(ws.n)]

    for i in range(ws.n):
        cond = edge_conditions(ws, i)
        j0 = 0 if i != 0 else 1
        if not cond.excludes_vector:
            lam = sanitize(cond.vector_membership.coefficients, i)
            if all(x == 0 for x in lam):
                cert = {"kind": "zero-weight", "pair": (i, j0)}
                return Verdict("SP", "affine", False, cert)
            j = next(k for k in range(ws.n) if lam[k] > 0)
            cert = {"kind": "generator-in-cone", "coefficients": tuple(lam), "pair": (j, i)}
            return Verdict("SP", "affine", False, cert)
        if not cond.excludes_negation:
            relation = sanitize(cond.negation_membership.coefficients, i)
            relation[i] = Fraction(1)
            cert = {"kind": "line-in-cone", "relation": tuple(relation), "pair": (i, j0)}
            return Verdict("SP", "affine", False, cert)
    return Verdict("SP", "affine", True, {"kind": "edge-separation"})


def reference_ssp_witness(ws: WeightSystem) -> SspWitness | None:
    """The SSP coordinate witness by a scan of every stratum: for pairs
    in lexicographic order, the first stratum in canonical order that
    avoids both coordinates and has rank >= r - 1."""
    if ws.n < 2:
        return None
    ambient = rank(ws.weights)
    all_strata = strata(ws)
    for i in range(ws.n):
        for j in range(i + 1, ws.n):
            for s in all_strata:
                if i in s.indices or j in s.indices:
                    continue
                if s.dim >= ambient - 1:
                    if s.dim != ambient - 1:
                        raise AssertionError(f"stratum deeper than the ambient rank: {s}")
                    return SspWitness((i, j), ConeFace(s.indices, s.witness), ambient)
    return None


def reference_cone_hypothesis(ws: WeightSystem):
    """Whether some rational functional is 1 on every weight, by one
    ``lp_feasible`` call; (feasible, solution)."""
    res = lp_feasible([(w, 1) for w in ws.weights], [], num_vars=ws.dim)
    return res.feasible, res.solution


def reference_lp_feasible(equalities, inequalities, num_vars=None) -> FeasibilityResult:
    """Feasibility of {B x = b, C x >= c} by handing the Farkas
    alternative's matrix to the simplex itself: find u (free, split into
    two nonnegative columns) and y >= 0 with B^T u + C^T y = 0 and
    b.u + c.y = 1.  A solution is the certificate (u, y); otherwise the
    simplex's multipliers (q, t) have t > 0 and x = -q/t."""
    eqs, num_vars = lp._coerce(equalities, num_vars)
    ineqs, num_vars = lp._coerce(inequalities, num_vars)
    n = num_vars or 0
    columns = ([coeffs + [b] for coeffs, b in eqs]
               + [[-a for a in coeffs] + [-b] for coeffs, b in eqs]
               + [coeffs + [c] for coeffs, c in ineqs])
    matrix = [[col[r] for col in columns] for r in range(n + 1)]
    rhs = [Fraction(0)] * n + [Fraction(1)]
    dual_feasible, nums, denom = lp._phase1(matrix, rhs, len(columns))
    vec = [Fraction(x, denom) for x in nums]
    if dual_feasible:
        e = len(eqs)
        cert = tuple(vec[k] - vec[e + k] for k in range(e)) + tuple(vec[2 * e:])
        result = FeasibilityResult(False, certificate=cert)
    else:
        result = FeasibilityResult(True, solution=tuple(-q / vec[n] for q in vec[:n]))
    lp._check_feasibility(eqs, ineqs, n, result)
    return result


def reference_hermite(rows) -> tuple[tuple[Vector, ...], int]:
    """The Hermite row form and sign of ``torsep.linalg._hermite`` by
    repeated least-remainder reduction: in each column, reduce every
    nonzero row by the one of least absolute value until one is left.

    Zero rows are dropped, pivots are positive and strictly to the right
    as you go down, and entries above each pivot are reduced into
    [0, pivot).  The sign is that of the swaps and negations applied, or
    0 if a zero row was dropped.
    """
    mat = [list(r) for r in rows]
    sign = 1
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][col] != 0]
            if len(nz) <= 1:
                break
            imin = min(nz, key=lambda i: abs(mat[i][col]))
            for i in nz:
                if i == imin:
                    continue
                q = mat[i][col] // mat[imin][col]
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[imin])]
        if not nz:
            continue
        i = nz[0]
        if i != r:
            mat[r], mat[i] = mat[i], mat[r]
            sign = -sign
        if mat[r][col] < 0:
            mat[r] = [-a for a in mat[r]]
            sign = -sign
        for k in range(r):
            q = mat[k][col] // mat[r][col]
            if q:
                mat[k] = [a - q * b for a, b in zip(mat[k], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r]), sign if r == len(mat) else 0


def reference_vanishing_failures(binomials, ws: WeightSystem, trials: int, prime: int,
                                 seed: int) -> tuple:
    """The failures of ``torsep.ideals.verify_vanishing`` by evaluating
    every power of every monomial afresh: per trial, the point
    x_i = prod t_r^(w_i[r]) and then each binomial at it, mod ``prime``."""
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        t = tuple(rng.randrange(1, prime) for _ in range(ws.dim))
        point = [prod(pow(base, e % (prime - 1), prime) for base, e in zip(t, w)) % prime
                 for w in ws.weights]
        for binom in binomials:
            value = (prod(pow(x, e, prime) for x, e in zip(point, binom.a))
                     - prod(pow(x, e, prime) for x, e in zip(point, binom.b))) % prime
            if value:
                failures.append((trial, t, binom, value))
    return tuple(failures)


def reference_phase1(matrix, rhs, ncols):
    """Phase-1 simplex on ``{A y = b, y >= 0}`` over ``Fraction`` with
    Bland's rule: the rational tableau that ``torsep.lp._phase1`` keeps
    over one integer denominator.  Same return shape: ``(True, y)`` or
    ``(False, z)`` with ``z . A_j <= 0`` and ``z . b > 0``.

    Rows are sign-normalised so that b >= 0 and given one artificial
    each; the multipliers are ``1 - (reduced cost of artificial i)``.
    """
    zero, one = Fraction(0), Fraction(1)
    m = len(matrix)
    sigma = []
    tableau = []
    for i in range(m):
        row = [Fraction(a) for a in matrix[i]]
        b = Fraction(rhs[i])
        if b < 0:
            row = [-a for a in row]
            b = -b
            sigma.append(-1)
        else:
            sigma.append(1)
        art = [zero] * m
        art[i] = one
        tableau.append(row + art + [b])
    basis = [ncols + i for i in range(m)]
    width = ncols + m + 1

    cost = [-sum(tableau[i][j] for i in range(m)) for j in range(ncols)]
    cost += [zero] * m
    cost.append(-sum(tableau[i][-1] for i in range(m)))

    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                key = (tableau[i][-1] / a, basis[i])
                if best is None or key < best:
                    best = key
                    leave = i
        piv_row = tableau[leave]
        piv = piv_row[enter]
        if piv != 1:
            tableau[leave] = piv_row = [a / piv if a else a for a in piv_row]
        support = [k for k in range(width) if piv_row[k]]
        for i in range(m):
            if i != leave:
                row = tableau[i]
                f = row[enter]
                if f:
                    for k in support:
                        row[k] -= f * piv_row[k]
        f = cost[enter]
        for k in support:
            cost[k] -= f * piv_row[k]
        basis[leave] = enter

    if cost[-1] == 0:
        y = [zero] * ncols
        for i, col in enumerate(basis):
            if col < ncols:
                y[col] = tableau[i][-1]
        return True, y
    return False, [sigma[i] * (one - cost[ncols + i]) for i in range(m)]


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


def reference_graver(generators, max_nodes: int = 40_000_000) -> tuple[Vector, ...]:
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


def reference_characteristic_pairs(ws: WeightSystem) -> tuple[tuple[int, int], ...]:
    """The forcing pairs (i, j), x_{i+1} = 0 forcing x_{j+1} = 0, read off
    the whole face lattice: one bitmask per coordinate, bit s set where it
    is nonzero on stratum s, and the pair is there iff every stratum
    missing i also misses j.  The lattice is built uncached, under a face
    guard of at least 2^n, which no input can trip."""
    pat = [0] * ws.n
    with mock.patch.object(cones, "MAX_FACES", max(cones.MAX_FACES, 2 ** ws.n)):
        faces = enumerate_faces.__wrapped__(ws)
    for s, face in enumerate(faces):
        for k in face.indices:
            pat[k] |= 1 << s
    return tuple((i, j) for i in range(ws.n) for j in range(ws.n) if not pat[j] & ~pat[i])


def _lattice_sets(ws):
    return [set(f.indices) for f in enumerate_faces(ws)]


def _lattice_missed(problems, ws, cert):
    if verification._valid_pair(problems, ws, cert["pair"]):
        i = cert["pair"][0]
        verification._require(problems, all(i in s for s in _lattice_sets(ws)),
                              "coordinate does vanish somewhere")


def _lattice_forcing(problems, ws, cert):
    if not verification._valid_pair(problems, ws, cert["pair"]):
        return
    j, i = cert["pair"]
    sets = _lattice_sets(ws)
    verification._require(problems, all(i not in s for s in sets if j not in s),
                          "forcing pair does not force")


def _lattice_strata(problems, ws, cert, splits):
    """Each listed S_k is in the face lattice and holds k, and every pair
    (i, j) of the property is split: ``splits(i, j, S_i, S_j)``."""
    sets = {tuple(sorted(s)) for s in _lattice_sets(ws)}
    listed = cert["strata"]
    verification._require(problems, len(listed) == ws.n, "one stratum per weight required")
    table = [tuple(listed[k]) for k in range(ws.n)]
    for k, s in enumerate(table):
        if verification._valid_indices(problems, s, ws.n, "stratum index"):
            verification._require(problems, s in sets, f"entry {k} is not a stratum")
            verification._require(problems, k in s, f"stratum {k} does not hold weight {k}")
    for i, j in combinations(range(ws.n), 2):
        verification._require(problems, splits(i, j, set(table[i]), set(table[j])),
                              f"no listed stratum splits weights {i} and {j}")


def _lattice_equivalent(problems, ws, cert):
    if not verification._valid_pair(problems, ws, cert["pair"]):
        return
    i, j = cert["pair"]
    verification._require(problems, all((i in s) == (j in s) for s in _lattice_sets(ws)),
                          "pair is distinguished by some stratum")


_LATTICE_STRATA_CHECKERS = {
    "strata-missed-hyperplane": _lattice_missed,
    "strata-forcing-pair": _lattice_forcing,
    # SP: S_j holds j and misses i, and S_i holds i and misses j.
    "strata-separation": lambda problems, ws, cert: _lattice_strata(
        problems, ws, cert, lambda i, j, si, sj: i not in sj and j not in si),
    "strata-equivalent-pair": _lattice_equivalent,
    # WSP: S_i or S_j holds one of the two coordinates and misses the other.
    "strata-distinguished": lambda problems, ws, cert: _lattice_strata(
        problems, ws, cert, lambda i, j, si, sj: j not in si or i not in sj),
}


def reference_check_verdict(ws: WeightSystem, verdict: Verdict) -> list[str]:
    """``check_verdict``, except that the five ``strata-*`` kinds are
    checked against every stratum of the face lattice, as the verifier
    did before it read smallest faces.  An oracle verdict's lattice
    passed ``cones.MAX_FACES``, so its reference check builds no larger one."""
    checker = _LATTICE_STRATA_CHECKERS.get(verdict.kind)
    if checker is None:
        return check_verdict(ws, verdict)
    kind = verification.KINDS[verdict.kind]._replace(
        check=lambda problems, ws, cert, reading: checker(problems, ws, cert))
    with mock.patch.dict(verification.KINDS, {verdict.kind: kind}):
        return check_verdict(ws, verdict)
