"""Exact integer and rational linear algebra.

Everything downstream reduces to the primitives here, and all of them
rest on one fraction-free elimination: the Hermite row form computed by
``_hermite``.  Ranks, independent rows and determinants are read off the
form, exact solves off the form of [A | b], saturated integer kernels
off the form of [A^T | I], and lattices are compared by their forms.
All arithmetic is arbitrary-precision and exact; no floating point
appears anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm, prod

from .errors import InputError

Vector = tuple[int, ...]


def dot(u, v) -> int | Fraction:
    """Inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)


def primitive_vector(v) -> Vector:
    """Scale a rational vector to the shortest integer vector with the
    same direction.  The zero vector maps to itself."""
    fracs = [Fraction(a) for a in v]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = lcm(*(f.denominator for f in fracs))
    ints = [int(f * denom_lcm) for f in fracs]
    g = gcd(*ints)
    return tuple(a // g for a in ints)


@dataclass(frozen=True)
class IntMatrix:
    """Dense integer matrix; column j holds the j-th character/generator.

    Entries are arbitrary-precision Python ints.  The matrix is immutable
    and hashable so results keyed on it can be memoised.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise InputError("matrix needs at least one row and one column")
        width = len(self.rows[0])
        for r, row in enumerate(self.rows):
            if len(row) != width:
                raise InputError(f"row {r} has length {len(row)}, expected {width}")
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise InputError(f"non-integer entry {x!r} in row {r}")

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @classmethod
    def from_columns(cls, columns) -> "IntMatrix":
        cols = [tuple(c) for c in columns]
        if not cols:
            raise InputError("matrix needs at least one column")
        return cls(tuple(tuple(col[i] for col in cols) for i in range(len(cols[0]))))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple[Vector, ...]:
        return tuple(self.column(j) for j in range(self.n))

    def mul_vector(self, v) -> tuple:
        """Matrix-vector product A @ v."""
        if len(v) != self.n:
            raise InputError(f"vector length {len(v)} does not match {self.n} columns")
        return tuple(dot(row, v) for row in self.rows)


def _hermite(rows) -> tuple[tuple[Vector, ...], int]:
    """Canonical Hermite row form of an integer row family, and the sign.

    Zero rows are dropped, pivots are positive and strictly to the right
    as you go down, and entries above each pivot are reduced into
    [0, pivot).  Only unimodular row operations are used, so the form
    spans the same lattice and is unique to it.  The sign is that of the
    swaps and negations applied, or 0 if a zero row was dropped, so a
    square matrix has determinant sign * (product of the diagonal).
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


def rank(matrix: IntMatrix) -> int:
    """Rank over the rationals: the number of rows of the Hermite form."""
    return len(_hermite(matrix.rows)[0])


def independent_rows(matrix: IntMatrix) -> tuple[int, ...]:
    """Indices of the first maximal linearly independent set of rows,
    i.e. the pivot columns of the Hermite form of the transpose."""
    form = _hermite(matrix.columns())[0]
    return tuple(next(j for j, a in enumerate(row) if a) for row in form)


def determinant(rows) -> int:
    """Determinant of a square integer matrix (exact, fraction-free)."""
    rows = list(rows)
    if any(len(row) != len(rows) for row in rows):
        raise InputError("determinant requires a square matrix")
    form, sign = _hermite(rows)
    return sign * prod(row[i] for i, row in enumerate(form))


def row_hnf(rows) -> tuple[Vector, ...]:
    """Canonical Hermite row form of an integer row family.

    Two row families span the same lattice iff their forms are equal.
    """
    return _hermite(rows)[0]


def lattice_equal(rows_a, rows_b) -> bool:
    """Whether two integer row families span the same lattice."""
    return row_hnf(rows_a) == row_hnf(rows_b)


def kernel_lattice(matrix: IntMatrix) -> tuple[Vector, ...]:
    """Canonical basis of the saturated integer kernel {c : A @ c = 0}.

    The Hermite form of [A^T | I] is U [A^T | I] for a unimodular U; its
    rows with a zero A^T part carry, in their I part, rows u of U with
    u A^T = 0.  They form a basis of the full integer kernel (saturated
    because U is invertible over the integers), already in Hermite form
    (Cohen 1993, Section 2.4).
    """
    d, n = matrix.d, matrix.n
    form, _ = _hermite(
        col + tuple(int(i == j) for i in range(n))
        for j, col in enumerate(matrix.columns())
    )
    return tuple(row[d:] for row in form if not any(row[:d]))


def solve_exact(rows, rhs):
    """Exact solve of an integer linear system (rows) @ x = rhs.

    Returns a Fraction tuple when the system is consistent, or None.
    When the solution space is positive-dimensional the member with the
    free variables pinned to zero is returned.
    """
    if not rows:
        return ()
    n = len(rows[0])
    x = [Fraction(0)] * n
    for row in reversed(_hermite([*row, b] for row, b in zip(rows, rhs))[0]):
        lead = next(j for j, a in enumerate(row) if a)
        if lead == n:
            return None
        x[lead] = (row[n] - dot(row[lead + 1:n], x[lead + 1:])) / Fraction(row[lead])
    return tuple(x)
