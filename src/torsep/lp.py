"""Exact rational linear feasibility with verifiable certificates.

One routine does the work: a phase-1 simplex over ``fractions.Fraction``
on a standard-form system ``{A y = b, y >= 0}``, with nonnegativity
native (never a constraint row) and Bland's rule, so termination is
unconditional and results are deterministic.  It returns either a
solution ``y`` or Farkas multipliers ``z`` with ``z A <= 0`` and
``z b > 0``, read from the final reduced costs.

Two entry points route through it:

- ``lp_feasible`` decides ``{B x = b, C x >= c}`` over free rational x
  by solving the Farkas alternative in standard form, which has one row
  per variable plus one, not one row per constraint.
- ``cone_member`` decides ``{G lam = v, lam >= 0}`` directly.

Every answer carries an exact witness that is re-checked by plain
arithmetic before it is returned: a solution vector when feasible,
otherwise a Farkas refutation -- multipliers, nonnegative on inequality
rows, whose combination of the constraint rows is the zero functional
while the combined right-hand side is positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InternalError
from .linalg import dot, primitive_vector

Constraint = tuple  # (coefficient sequence, rhs)

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of an exact feasibility question.

    Exactly one of ``solution`` / ``certificate`` is set.  The
    certificate is indexed by constraint rows, equalities first.
    """

    feasible: bool
    solution: tuple[Fraction, ...] | None = None
    certificate: tuple[Fraction, ...] | None = None


def _coerce(system, num_vars):
    rows = []
    for coeffs, rhs in system:
        row = [Fraction(c) for c in coeffs]
        if num_vars is None:
            num_vars = len(row)
        if len(row) != num_vars:
            raise InputError(
                f"constraint has {len(row)} coefficients, expected {num_vars}"
            )
        rows.append((row, Fraction(rhs)))
    return rows, num_vars


def _phase1(matrix, rhs, ncols):
    """Phase-1 simplex on ``{A y = b, y >= 0}`` (A is m x ncols, entries
    and right-hand sides all ``Fraction``).

    Returns ``(True, y)`` with a feasible y, or ``(False, z)`` with
    ``z . A_j <= 0`` for every column j and ``z . b > 0``.

    Rows are sign-normalised so that b >= 0 and given one artificial
    each; the artificial columns of the tableau hold the basis inverse,
    so the simplex multipliers are ``1 - (reduced cost of artificial
    i)``.  Artificials never re-enter the basis: the multipliers only
    need ``z A <= 0``, which optimality on the original columns gives.
    """
    m = len(matrix)
    sigma = []
    tableau = []
    for i in range(m):
        row = list(matrix[i])
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
            sigma.append(-1)
        else:
            sigma.append(1)
        art = [_ZERO] * m
        art[i] = _ONE
        tableau.append(row + art + [b])
    basis = [ncols + i for i in range(m)]
    width = ncols + m + 1

    # Reduced costs of the phase-1 objective (artificial costs 1), with
    # the negated objective value in the last entry.
    cost = [-sum(tableau[i][j] for i in range(m)) for j in range(ncols)]
    cost += [_ZERO] * m
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
        if leave is None:
            raise InternalError("phase-1 objective unbounded; solver invariant broken")
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
        y = [_ZERO] * ncols
        for i, col in enumerate(basis):
            if col < ncols:
                y[col] = tableau[i][-1]
        return True, y
    return False, [sigma[i] * (_ONE - cost[ncols + i]) for i in range(m)]


def lp_feasible(equalities, inequalities, num_vars=None) -> FeasibilityResult:
    """Decide feasibility of {B x = b, C x >= c} over free rational x.

    Solves the Farkas alternative in standard form: find u (free, split
    into two nonnegative columns) and y >= 0 with B^T u + C^T y = 0 and
    b.u + c.y = 1.  That system has ``num_vars + 1`` rows.  A solution
    is the infeasibility certificate (u, y).  When it has none, its
    Farkas multipliers (q, t) satisfy t > 0, and x = -q/t solves the
    original system.  The returned object is re-checked before being
    handed back.
    """
    eqs, num_vars = _coerce(equalities, num_vars)
    ineqs, num_vars = _coerce(inequalities, num_vars)
    n = num_vars or 0
    columns = (
        [coeffs + [b] for coeffs, b in eqs]
        + [[-a for a in coeffs] + [-b] for coeffs, b in eqs]
        + [coeffs + [c] for coeffs, c in ineqs]
    )
    matrix = [[col[r] for col in columns] for r in range(n + 1)]
    rhs = [_ZERO] * n + [_ONE]
    dual_feasible, vec = _phase1(matrix, rhs, len(columns))
    if dual_feasible:
        e = len(eqs)
        cert = tuple(vec[k] - vec[e + k] for k in range(e)) + tuple(vec[2 * e:])
        result = FeasibilityResult(False, certificate=cert)
    else:
        t = vec[n]
        result = FeasibilityResult(True, solution=tuple(-q / t for q in vec[:n]))
    _check_feasibility(eqs, ineqs, n, result)
    return result


def verify_feasibility(equalities, inequalities, num_vars, result) -> None:
    """Check a FeasibilityResult against its system by plain arithmetic.

    Raises InternalError on any violation; the solver calls this on
    every answer before returning it.
    """
    eqs, num_vars = _coerce(equalities, num_vars)
    ineqs, num_vars = _coerce(inequalities, num_vars)
    _check_feasibility(eqs, ineqs, num_vars or 0, result)


def _check_feasibility(eqs, ineqs, n, result) -> None:
    if result.feasible:
        x = result.solution
        if len(x) != n:
            raise InternalError("solution length does not match variable count")
        for coeffs, b in eqs:
            if dot(coeffs, x) != b:
                raise InternalError("claimed solution violates an equality")
        for coeffs, b in ineqs:
            if dot(coeffs, x) < b:
                raise InternalError("claimed solution violates an inequality")
        return
    u = result.certificate
    if len(u) != len(eqs) + len(ineqs):
        raise InternalError("certificate length does not match constraint count")
    for mult in u[len(eqs):]:
        if mult < 0:
            raise InternalError("certificate negative on an inequality row")
    all_rows = eqs + ineqs
    for k in range(n):
        if sum(mult * row[0][k] for mult, row in zip(u, all_rows)) != 0:
            raise InternalError("certificate does not annihilate the system")
    if sum(mult * row[1] for mult, row in zip(u, all_rows)) <= 0:
        raise InternalError("certificate right-hand side not positive")


@dataclass(frozen=True)
class ConeMembership:
    """Membership of a vector in a finitely generated rational cone.

    Inside: nonnegative rational coefficients writing the vector over
    the generators.  Outside: a primitive integer functional that is
    nonnegative on every generator and negative on the vector.
    """

    inside: bool
    coefficients: tuple[Fraction, ...] | None = None
    functional: tuple[int, ...] | None = None


def cone_member(vector, generators) -> ConeMembership:
    """Decide whether ``vector`` lies in the cone of ``generators``.

    Solves ``{G lam = v, lam >= 0}`` (one row per coordinate) directly.
    The coefficients, or else the negated Farkas multipliers made
    primitive, are checked by arithmetic before being returned.
    """
    v = tuple(vector)
    gens = [tuple(g) for g in generators]
    d = len(v)
    for g in gens:
        if len(g) != d:
            raise InputError(f"generator length {len(g)} does not match {d}")
    matrix = [[Fraction(g[r]) for g in gens] for r in range(d)]
    inside, vec = _phase1(matrix, [Fraction(x) for x in v], len(gens))
    if inside:
        combo = tuple(sum(c * g[r] for c, g in zip(vec, gens)) for r in range(d))
        if any(c < 0 for c in vec) or combo != v:
            raise InternalError("cone coefficients failed their arithmetic check")
        return ConeMembership(True, coefficients=tuple(vec))
    gamma = primitive_vector(tuple(-z for z in vec))
    if any(dot(gamma, g) < 0 for g in gens) or dot(gamma, v) >= 0:
        raise InternalError("separating functional failed its arithmetic check")
    return ConeMembership(False, functional=gamma)
