"""Shared helpers for the test suite: random instances, brute-force
oracles, and small transformation utilities."""

from __future__ import annotations

import random
from itertools import combinations, permutations, product
from math import prod

from torsep.cones import WeightSystem, face_witness
from torsep.linalg import IntMatrix, is_zero_vector, rank, solve_exact

# Golden weight systems used across modules.
M_WEIGHTS = WeightSystem.from_rows([[1, 1], [2, 0], [0, 2]])
N_WEIGHTS = WeightSystem.from_rows([[1, 0, 0], [0, 0, 1], [1, 1, 0], [0, 1, 1]])
FIVE_WEIGHTS = WeightSystem.from_rows(
    [[1, 0, 0], [1, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1]]
)
QUARTET_WEIGHTS = WeightSystem.from_rows([[1, 2], [1, 1], [3, 0], [0, 2]])


def random_weights(rng: random.Random, d: int, n: int, bound: int = 2) -> WeightSystem:
    return WeightSystem(
        d, tuple(tuple(rng.randint(-bound, bound) for _ in range(d)) for _ in range(n))
    )


def random_suite(seed: int, count: int, dims=(1, 2, 3), sizes=(1, 2, 3, 4, 5, 6)):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(random_weights(rng, rng.choice(dims), rng.choice(sizes)))
    return out


def brute_force_kernel_vectors(matrix: IntMatrix, bound: int = 3):
    """All integer kernel vectors with sup-norm <= bound, by enumeration."""
    n = matrix.n
    found = []
    for c in product(range(-bound, bound + 1), repeat=n):
        if all(x == 0 for x in matrix.mul_vector(c)):
            found.append(c)
    return found


def brute_force_graver(matrix: IntMatrix, bound: int = 3):
    """Graver basis elements with sup-norm <= bound, by enumeration.

    The nonzero kernel vectors of the box that are minimal in the
    conformal order (same signs, entrywise no larger in absolute value),
    one of each +-pair, sorted.  Every vector conformally below a box
    vector lies in the box, so this is exactly the part of the Graver
    basis inside the box.
    """
    box = [c for c in brute_force_kernel_vectors(matrix, bound) if any(c)]

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
            cols = IntMatrix.from_columns(subset)
            if rank(cols) != size:
                continue
            sol = solve_exact([list(row) for row in cols.rows], v)
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
