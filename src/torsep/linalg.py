"""Exact integer and rational linear algebra.

Everything downstream reduces to the primitives here, and all of them
rest on one fraction-free elimination: the Hermite row form computed by
``_hermite``, which reduces each column by least remainders.
Ranks, independent rows and determinants are read off the form, exact
solves (over one integer denominator) off the form of [A | b], an
inverse's columns off the form of [B | I] by the same back substitution,
relation lattices off the form of [V | I], and lattices are compared by
their forms.  There is no matrix type: a family of weights is a tuple of
integer tuples, and ``rank``, ``kernel_lattice`` and ``combine`` take it
as it is, while the row functions take the rows (``zip(*weights)`` when
the weights are the columns).  All arithmetic is arbitrary-precision
and exact; a rational vector is checked on the ints of
``clear_denominators``, and no float is accepted.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import InputError

Vector = tuple[int, ...]


def dot(u, v) -> int | Fraction:
    """Inner product of two equal-length vectors."""
    if len(u) != len(v):
        raise InputError(f"dimension mismatch: {len(u)} vs {len(v)}")
    return sum(map(mul, u, v))


def is_zero_vector(v) -> bool:
    return all(a == 0 for a in v)


def clear_denominators(v) -> tuple[Vector, int]:
    """(L v, L) for an exact rational vector, with L >= 1 the lcm of the
    entries' denominators, so that a check on v can run on ints.  An
    entry that is neither an ``int`` (a bool is not) nor a ``Fraction``
    raises InputError: a float is never an exact value."""
    types = set(map(type, v))
    if types <= {int}:
        return tuple(v), 1
    if not types <= {int, Fraction}:
        raise InputError(f"{v!r} has an entry that is neither an int nor a Fraction")
    scale = lcm(*(a.denominator for a in v))
    return tuple(a.numerator * (scale // a.denominator) for a in v), scale


def primitive_vector(v) -> Vector:
    """Scale a rational vector to the shortest integer vector with the
    same direction.  The zero vector maps to itself."""
    ints = clear_denominators(v)[0]
    g = gcd(*ints)
    return tuple(a // g for a in ints) if g else ints


def combine(vectors, c) -> tuple:
    """The combination sum_k c_k v_k of a family of equal-length vectors."""
    if len(c) != len(vectors):
        raise InputError(f"{len(c)} coefficients for {len(vectors)} vectors")
    return tuple(dot(column, c) for column in zip(*vectors))


def count_nonrelations(vectors, coefficients) -> int:
    """How many c have ``combine(vectors, c)`` nonzero; the columns are read once."""
    columns, count = tuple(zip(*vectors)), 0
    for c in coefficients:
        if len(c) != len(vectors):
            raise InputError(f"{len(c)} coefficients for {len(vectors)} vectors")
        count += any(sum(map(mul, column, c)) for column in columns)
    return count


def _hermite(rows) -> tuple[tuple[Vector, ...], int]:
    """Canonical Hermite row form of an integer row family, and the sign.

    Zero rows are dropped, pivots are positive and strictly to the right
    as you go down, and entries above each pivot are reduced into
    [0, pivot).  Only unimodular row operations are used, so the form
    spans the same lattice and is unique to it.  The sign is that of the
    swaps and negations applied, or 0 if a zero row was dropped, so a
    square matrix has determinant sign * (product of the diagonal).
    In each column every nonzero row R (entry b) becomes R - floor(b / a) P,
    for the row P of least absolute entry a, until one nonzero row is left;
    each round revisits only the rows the last one left nonzero (live rows).
    """
    mat = [list(r) for r in rows]
    sign = 1
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        nz = [i for i in range(r, len(mat)) if mat[i][col]]
        while len(nz) > 1:
            imin = min(nz, key=lambda i: abs(mat[i][col]))
            for i in nz:
                if i != imin and (q := mat[i][col] // mat[imin][col]):
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[imin])]
            nz = [i for i in nz if mat[i][col]]
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


def rank(vectors) -> int:
    """Rank over the rationals of a vector family (0 for none): the
    number of rows of its Hermite form."""
    return len(_hermite(vectors)[0])


def independent_rows(rows) -> tuple[int, ...]:
    """Indices of the first maximal linearly independent set of rows,
    i.e. the pivot columns of the Hermite form of the transpose."""
    form = _hermite(zip(*rows))[0]
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
    """Whether two row families span the same lattice (``rows_b`` is read once)."""
    form, rows_b = row_hnf(rows_a), tuple(map(tuple, rows_b))
    return form == rows_b or form == row_hnf(rows_b)


def kernel_lattice(vectors) -> tuple[Vector, ...]:
    """Canonical basis of the saturated lattice of integer relations
    {c : sum_k c_k v_k = 0} of a nonempty vector family.

    The Hermite form of [V | I], with the vectors as the rows of V, is
    U [V | I] for a unimodular U; its rows with a zero V part carry, in
    their I part, rows u of U with u V = 0.  They form a basis of the
    full relation lattice (saturated because U is invertible over the
    integers), already in Hermite form (Cohen 1993, Section 2.4).
    """
    d, n = len(vectors[0]), len(vectors)
    form, _ = _hermite((*v, *(int(i == j) for i in range(n))) for j, v in enumerate(vectors))
    return tuple(row[d:] for row in form if not any(row[:d]))


def _back_substitute(form, n: int, c: int) -> tuple[list[int], int] | None:
    """(x, D), D >= 1, with A x = D b and free variables 0, where ``form`` is the
    Hermite form of [A | ...], A has n columns and b is the form's column c;
    None when a row leads past A (inconsistent, or A singular)."""
    nums, denom = [0] * n, 1
    for row in reversed(form):
        lead = next(j for j, a in enumerate(row) if a)
        if lead >= n:
            return None
        top = row[c] * denom - dot(row[lead + 1:n], nums[lead + 1:])
        nums = [row[lead] * a for a in nums]
        nums[lead], denom = top, denom * row[lead]
    return nums, denom


def solve_exact(rows, rhs):
    """Exact solve of an integer linear system (rows) @ x = rhs.

    Returns a Fraction tuple when the system is consistent, or None.
    When the solution space is positive-dimensional the member with the
    free variables pinned to zero is returned.  The back substitution
    keeps x as ints over one denominator and builds the Fractions last.
    """
    if not rows:
        return ()
    n = len(rows[0])
    x = _back_substitute(_hermite([*row, b] for row, b in zip(rows, rhs))[0], n, n)
    return None if x is None else tuple(Fraction(a, x[1]) for a in x[0])


def inverse_columns(rows) -> tuple[tuple[Vector, ...], int]:
    """(C, D), D >= 1, with C the columns of D B^-1, for the list of rows of
    a square invertible integer matrix B; no Fraction is built.  The form
    of [B | I] is [H | U] with U B = H, so B^-1 e_i = H^-1 U e_i: one
    elimination, and one back substitution per column over D = prod H_ii."""
    r = len(rows)
    if any(len(row) != r for row in rows):
        raise InputError("inverse_columns requires a square matrix")
    form = _hermite((*row, *(int(i == j) for j in range(r))) for i, row in enumerate(rows))[0]
    columns = [_back_substitute(form, r, r + i) for i in range(r)]
    if None in columns:
        raise InputError("inverse_columns requires an invertible matrix")
    return tuple(tuple(x) for x, _ in columns), columns[0][1] if r else 1
