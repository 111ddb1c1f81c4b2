"""Exact integer and rational linear algebra.

Everything downstream reduces to the primitives here: ranks over the
rationals, saturated integer kernel lattices, and canonical Hermite row
forms for comparing lattices.  All arithmetic is arbitrary-precision and
exact; no floating point appears anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InputError, InternalError

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
    denom_lcm = 1
    for f in fracs:
        d = f.denominator
        denom_lcm = denom_lcm * d // gcd(denom_lcm, d)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for a in ints:
        g = gcd(g, a)
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


def rank(matrix: IntMatrix) -> int:
    """Rank over the rationals, by fraction-exact Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix.rows]
    m, n = len(rows), len(rows[0])
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        for i in range(r + 1, m):
            f = rows[i][col] / pr[col]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        r += 1
        if r == m:
            break
    return r


def independent_rows(matrix: IntMatrix) -> tuple[int, ...]:
    """Indices of a maximal linearly independent set of rows."""
    rows = [[Fraction(x) for x in row] for row in matrix.rows]
    m, n = len(rows), len(rows[0])
    chosen: list[int] = []
    basis: list[list[Fraction]] = []
    for i in range(m):
        cand = rows[i][:]
        for b in basis:
            lead = next((j for j in range(n) if b[j] != 0), None)
            if lead is not None and cand[lead] != 0:
                f = cand[lead] / b[lead]
                cand = [a - f * c for a, c in zip(cand, b)]
        if any(a != 0 for a in cand):
            chosen.append(i)
            basis.append(cand)
    return tuple(chosen)


def determinant(rows) -> int:
    """Determinant of a square integer matrix (exact, via fractions)."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise InputError("determinant requires a square matrix")
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        pr = mat[col]
        for i in range(col + 1, n):
            f = mat[i][col] / pr[col]
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], pr)]
    if det.denominator != 1:
        raise InternalError("determinant of an integer matrix is not an integer")
    return int(det)


def row_hnf(rows) -> tuple[Vector, ...]:
    """Canonical Hermite row form of an integer row family.

    Zero rows are dropped, pivots are positive and strictly to the right
    as you go down, and entries above each pivot are reduced into
    [0, pivot).  Two row families span the same lattice iff their forms
    are equal.
    """
    mat = [list(r) for r in rows if not is_zero_vector(r)]
    if not mat:
        return ()
    n = len(mat[0])
    r = 0
    for col in range(n):
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
        nz = [i for i in range(r, len(mat)) if mat[i][col] != 0]
        if not nz:
            continue
        i = nz[0]
        mat[r], mat[i] = mat[i], mat[r]
        if mat[r][col] < 0:
            mat[r] = [-a for a in mat[r]]
        for k in range(r):
            q = mat[k][col] // mat[r][col]
            if q:
                mat[k] = [a - q * b for a, b in zip(mat[k], mat[r])]
        r += 1
    return tuple(tuple(row) for row in mat[:r] if not is_zero_vector(row))


def lattice_member(hnf_rows, v) -> bool:
    """Whether v lies in the lattice spanned by rows already in Hermite form."""
    rem = list(v)
    for row in hnf_rows:
        lead = next(j for j in range(len(row)) if row[j] != 0)
        if rem[lead] % row[lead] == 0:
            q = rem[lead] // row[lead]
            if q:
                rem = [a - q * b for a, b in zip(rem, row)]
    return all(a == 0 for a in rem)


def lattice_equal(rows_a, rows_b) -> bool:
    """Whether two integer row families span the same lattice."""
    return row_hnf(rows_a) == row_hnf(rows_b)


def kernel_lattice(matrix: IntMatrix) -> tuple[Vector, ...]:
    """Canonical basis of the saturated integer kernel {c : A @ c = 0}.

    Column reduction by unimodular operations: the columns of the
    accumulated transform that map to zero columns of A form a basis of
    the full integer kernel (saturation is automatic because the
    transform is invertible over the integers).  The basis is then put
    into canonical Hermite row form.
    """
    d, n = matrix.d, matrix.n
    work = [list(row) for row in matrix.rows]
    trans = [[int(i == j) for j in range(n)] for i in range(n)]
    pivot_col = 0
    for r in range(d):
        while True:
            nz = [j for j in range(pivot_col, n) if work[r][j] != 0]
            if len(nz) <= 1:
                break
            jmin = min(nz, key=lambda j: abs(work[r][j]))
            for j in nz:
                if j == jmin:
                    continue
                q = work[r][j] // work[r][jmin]
                if q:
                    for i in range(d):
                        work[i][j] -= q * work[i][jmin]
                    for i in range(n):
                        trans[i][j] -= q * trans[i][jmin]
        nz = [j for j in range(pivot_col, n) if work[r][j] != 0]
        if nz:
            j = nz[0]
            if j != pivot_col:
                for i in range(d):
                    work[i][j], work[i][pivot_col] = work[i][pivot_col], work[i][j]
                for i in range(n):
                    trans[i][j], trans[i][pivot_col] = trans[i][pivot_col], trans[i][j]
            pivot_col += 1
    basis = [tuple(trans[i][j] for i in range(n)) for j in range(pivot_col, n)]
    return row_hnf(basis)


def solve_exact(rows, rhs):
    """Unique-or-none exact solve of a linear system (rows) @ x = rhs.

    Returns a Fraction tuple when the system is consistent, or None.
    When the solution space is positive-dimensional an arbitrary member
    is returned (free variables pinned to zero).
    """
    m = len(rows)
    if m == 0:
        return ()
    n = len(rows[0])
    aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pr = aug[r]
        inv = 1 / pr[col]
        aug[r] = [a * inv for a in pr]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for row_i, col_i in pivots:
        x[col_i] = aug[row_i][n]
    return tuple(x)
