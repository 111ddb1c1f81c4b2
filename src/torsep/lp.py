"""Exact rational linear feasibility with verifiable certificates.

One routine does the work: a phase-1 simplex on a standard-form system
``{A y = b, y >= 0}``, with nonnegativity native (never a constraint
row) and Bland's rule, so termination is unconditional and results are
deterministic.  It returns either a solution ``y`` or Farkas multipliers
``z`` with ``z A <= 0`` and ``z b > 0``, read from the final reduced
costs.  Its pivots are integer-preserving (Edmonds 1967; Bareiss 1968):
the tableau is kept as ``int`` rows over one common positive
denominator, after ``A`` and ``b`` are scaled by the lcm of their
denominators, and every division is exact.  The pivots, and so ``y`` and
``z``, are those of the ``Fraction`` tableau of the unscaled system.
Answers are integer numerators over that denominator, checked as such;
``Fraction``s are built once, for the coefficients returned.

Every exact LP is one cone membership: ``cone_member`` decides ``{G lam
= v, lam >= 0}`` and is the simplex's only caller, and ``lp_feasible``
decides ``{B x = b, C x >= c}`` over free x as the membership of its
Farkas alternative (one row per variable plus one, not per constraint).
No verdict path calls ``lp_feasible``; ``cones.face_witness`` does.

Every answer carries an exact witness that is re-checked by plain
arithmetic before it is returned: a solution vector when feasible,
otherwise a Farkas refutation -- multipliers, nonnegative on inequality
rows, whose combination of the constraint rows is the zero functional
while the combined right-hand side is positive.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm

from .errors import InputError, InternalError
from .linalg import dot, primitive_vector


class FeasibilityResult(namedtuple("FeasibilityResult", "feasible solution certificate",
                                   defaults=(None, None))):
    """Outcome of an exact feasibility question.

    Exactly one of ``solution`` / ``certificate`` (Fraction tuples) is
    set.  The certificate is indexed by constraint rows, equalities first.
    """

    __slots__ = ()


def _coerce(system, num_vars):
    rows = []
    for coeffs, rhs in system:
        row = [c if type(c) is int else Fraction(c) for c in coeffs]
        if num_vars is None:
            num_vars = len(row)
        if len(row) != num_vars:
            raise InputError(
                f"constraint has {len(row)} coefficients, expected {num_vars}"
            )
        rows.append((row, rhs if type(rhs) is int else Fraction(rhs)))
    return rows, num_vars


def _phase1(matrix, rhs, ncols):
    """Phase-1 simplex on ``{A y = b, y >= 0}`` (A is m x ncols; entries
    and right-hand sides are ``int`` or ``Fraction``).

    Returns ``(True, Y, D)`` with a feasible y = Y / D, or ``(False, Z,
    D)`` with ``z . A_j <= 0`` for every column j and ``z . b > 0`` for
    z = Z / D: ``int`` lists over the tableau's denominator D > 0.

    Rows are sign-normalised so that b >= 0 and given one artificial
    each; the artificial columns of the tableau hold the basis inverse,
    so the simplex multipliers are ``1 - (reduced cost of artificial
    i)``.  Artificials never re-enter the basis: the multipliers only
    need ``z A <= 0``, which optimality on the original columns gives.

    The pivots are integer-preserving (Edmonds 1967; Bareiss 1968).
    ``A`` and ``b`` are multiplied by the common denominator ``L`` of
    all their entries, and the tableau and cost row are kept as ``int``
    rows over one positive denominator ``D``: a pivot on ``p`` maps
    every other row ``T_i`` to ``(p T_i - T_ic T_r) // D``, exactly,
    and sets ``D = p``.  As the ratio test only picks ``p > 0``, ``D``
    stays positive and every sign read by Bland's rule is that of the
    rational tableau.  Against the tableau of the unscaled system, the
    scale multiplies a row by ``L`` when an artificial is basic in it
    (else by 1) and the reduced costs of the original columns by ``L``,
    so every ratio and sign, hence every pivot, is the same; the
    reduced costs of the artificials, hence y and z, are unchanged.
    """
    m = len(matrix)
    scale = lcm(*(x.denominator for row in matrix for x in row),
                *(x.denominator for x in rhs))
    sigma = []
    tableau = []
    for i in range(m):
        s = -1 if rhs[i] < 0 else 1
        sigma.append(s)
        row = [s * x.numerator * (scale // x.denominator) for x in matrix[i]]
        row += [0] * m
        row[ncols + i] = 1
        b = rhs[i]
        row.append(s * b.numerator * (scale // b.denominator))
        tableau.append(row)
    basis = [ncols + i for i in range(m)]
    denom = 1

    # Reduced costs of the phase-1 objective (artificial costs 1), with
    # the negated objective value in the last entry; all over ``denom``.
    cost = [-sum(col) for col in zip(*tableau)] if m else [0] * (ncols + 1)
    cost[ncols:ncols + m] = [0] * m

    while True:
        enter = next((j for j in range(ncols) if cost[j] < 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                b = tableau[i][-1]
                if leave is None:
                    leave, best_a, best_b = i, a, b
                    continue
                # Compare b / a with best_b / best_a; ties go to the lower
                # basis index.
                cross = b * best_a - best_b * a
                if cross < 0 or (cross == 0 and basis[i] < basis[leave]):
                    leave, best_a, best_b = i, a, b
        if leave is None:
            raise InternalError("phase-1 objective unbounded; solver invariant broken")
        piv_row = tableau[leave]
        piv = piv_row[enter]
        for i in range(m):
            if i != leave:
                tableau[i] = _bareiss(tableau[i], piv_row, piv, denom, enter)
        cost = _bareiss(cost, piv_row, piv, denom, enter)
        basis[leave] = enter
        denom = piv

    if cost[-1] == 0:
        y = [0] * ncols
        for i, col in enumerate(basis):
            if col < ncols:
                y[col] = tableau[i][-1]
        return True, y, denom
    return False, [sigma[i] * (denom - cost[ncols + i]) for i in range(m)], denom


def _bareiss(row, piv_row, piv, denom, enter):
    """One row of an integer-preserving pivot: ``(piv row - f piv_row) //
    denom`` with ``f = row[enter]``; the division is exact."""
    f = row[enter]
    if f:
        return [(piv * a - f * b) // denom for a, b in zip(row, piv_row)]
    if piv == denom:
        return row
    return [piv * a // denom for a in row]


def lp_feasible(equalities, inequalities, num_vars=None) -> FeasibilityResult:
    """Decide feasibility of {B x = b, C x >= c} over free rational x.

    One ``cone_member`` of ``num_vars + 1`` rows: is ``e_{n+1}`` in the
    cone of the columns (B_k, b_k), (-B_k, -b_k) and (C_k, c_k)?  That is
    the Farkas alternative: u free and y >= 0 with B^T u + C^T y = 0 and
    b.u + c.y = 1.  Inside, the coefficients give the infeasibility
    certificate (u, y); outside, the functional (q, t) has t < 0 and
    x = -q/t is a solution.  The answer is re-checked before it is
    returned."""
    eqs, num_vars = _coerce(equalities, num_vars)
    ineqs, num_vars = _coerce(inequalities, num_vars)
    n = num_vars or 0
    columns = (
        [coeffs + [b] for coeffs, b in eqs]
        + [[-a for a in coeffs] + [-b] for coeffs, b in eqs]
        + [coeffs + [c] for coeffs, c in ineqs]
    )
    membership = cone_member((0,) * n + (1,), columns)
    if membership.inside:
        vec, e = membership.coefficients, len(eqs)
        cert = tuple(vec[k] - vec[e + k] for k in range(e)) + vec[2 * e:]
        result = FeasibilityResult(False, certificate=cert)
    else:
        *q, t = membership.functional
        result = FeasibilityResult(True, solution=tuple(Fraction(-x, t) for x in q))
    _check_feasibility(eqs, ineqs, n, result)
    return result


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


class ConeMembership(namedtuple("ConeMembership", "inside coefficients functional",
                                defaults=(None, None))):
    """Membership of a vector in a finitely generated rational cone.

    Inside: nonnegative rational ``coefficients`` writing the vector over
    the generators.  Outside: a primitive integer ``functional`` that is
    nonnegative on every generator and negative on the vector.
    """

    __slots__ = ()


def cone_member(vector, generators) -> ConeMembership:
    """Decide whether ``vector`` lies in the cone of ``generators``.

    Solves ``{G lam = v, lam >= 0}`` (one row per coordinate, entries
    ``int`` or ``Fraction`` as given).  The coefficients, as numerators
    Y over the simplex's denominator D (G Y = D v), or else the negated
    Farkas multipliers made primitive, are checked before being returned.
    """
    v = tuple(vector)
    gens = [tuple(g) for g in generators]
    d = len(v)
    for g in gens:
        if len(g) != d:
            raise InputError(f"generator length {len(g)} does not match {d}")
    matrix = [[g[r] for g in gens] for r in range(d)]
    inside, vec, denom = _phase1(matrix, v, len(gens))
    if inside:
        if any(c < 0 for c in vec) or any(dot(row, vec) != denom * x
                                          for row, x in zip(matrix, v)):
            raise InternalError("cone coefficients failed their arithmetic check")
        return ConeMembership(True, coefficients=tuple(Fraction(c, denom) for c in vec))
    gamma = primitive_vector(tuple(-z for z in vec))
    if any(dot(gamma, g) < 0 for g in gens) or dot(gamma, v) >= 0:
        raise InternalError("separating functional failed its arithmetic check")
    return ConeMembership(False, functional=gamma)
