"""SP for the special-linear orbit of a binary form (characteristic 0).

The orbit of a nonzero form has the separation property exactly when
the form has a linear factor of multiplicity one over the algebraic
closure.  Since any nonconstant squarefree homogeneous part splits into
distinct linear factors there, it suffices to compute the squarefree
multiplicity decomposition over the rationals, which is done by Yun's
repeated-gcd scheme on the dehomogenization, with the multiplicity of
the factor y read off from the degree drop.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction

from .errors import InputError, InternalError, ResourceGuardError

Poly = tuple[Fraction, ...]  # ascending coefficients, no trailing zeros

# A short form text can name any degree; Yun's gcds on a dense form with
# entries in [-3, 3] take 0.2 s at degree 100, 3 s at 200 and 40 s at 400.
MAX_FORM_DEGREE = 200


def check_form_degree(degree: int) -> None:
    """Refuse a form of degree above ``MAX_FORM_DEGREE`` before its
    coefficients are built, whether given as text or as a JSON list."""
    if degree > MAX_FORM_DEGREE:
        raise ResourceGuardError(f"form has degree {degree}, above the guard of {MAX_FORM_DEGREE}")


def _trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _deg(p: Poly) -> int:
    return len(p) - 1  # degree of the zero polynomial is -1


def _add(p: Poly, q: Poly) -> Poly:
    size = max(len(p), len(q))
    return _trim(
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(size)
    )


def _divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder of p by q != 0; both are trimmed (no trailing zeros)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq, lead = _deg(q), q[-1]
    while len(rem) > dq:  # a trimmed remainder is nonzero iff it is nonempty
        shift = len(rem) - 1 - dq
        factor = rem[-1] / lead
        quot[shift] = factor
        for i, b in enumerate(q):
            rem[shift + i] -= factor * b
        while rem and rem[-1] == 0:
            rem.pop()
    return _trim(quot), _trim(rem)


def _exact_div(p: Poly, q: Poly) -> Poly:
    quot, rem = _divmod(p, q)
    if rem:
        raise InternalError("polynomial division was expected to be exact")
    return quot


def _derivative(p: Poly) -> Poly:
    return _trim(i * p[i] for i in range(1, len(p)))


def _monic(p: Poly) -> Poly:
    if not p:
        return p
    lead = p[-1]
    return tuple(a / lead for a in p)


def _gcd(p: Poly, q: Poly) -> Poly:
    # Monic remainders keep the Fraction coefficients from swelling.
    while q:
        p, q = q, _monic(_divmod(p, q)[1])
    return _monic(p)


def _yun(p: Poly) -> list[tuple[Poly, int]]:
    """Squarefree decomposition by repeated gcds (Yun's scheme):
    monic pairwise-coprime squarefree parts with p = lc * prod part^mult."""
    parts = []
    monic_p = _monic(p)
    dp = _derivative(monic_p)
    g = _gcd(monic_p, dp)
    c = _exact_div(monic_p, g)
    d = _add(_exact_div(dp, g), tuple(-x for x in _derivative(c)))
    i = 1
    while _deg(c) > 0:
        a = _gcd(c, d)
        if _deg(a) > 0:
            parts.append((a, i))
        c = _exact_div(c, a)
        d = _add(_exact_div(d, a), tuple(-x for x in _derivative(c)))
        i += 1
    return parts


class BinaryForm(namedtuple("BinaryForm", "coeffs")):
    """Homogeneous binary form sum h_m x^(n-m) y^m, degree n >= 1."""

    __slots__ = ()

    def __new__(cls, coeffs) -> "BinaryForm":
        frozen = tuple(Fraction(c) for c in coeffs)
        if len(frozen) < 2:
            raise InputError("a binary form must have degree at least 1")
        if all(c == 0 for c in frozen):
            raise InputError("the zero form is not allowed")
        return super().__new__(cls, frozen)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_factors(cls, factors) -> "BinaryForm":
        """Expand a factored input: [(form, multiplicity), ...]."""
        result = None
        for form, mult in factors:
            for _ in range(mult):
                result = form if result is None else multiply(result, form)
        if result is None:
            raise InputError("at least one factor is required")
        return result

    def __str__(self) -> str:
        return form_to_string(self)


def multiply(f: BinaryForm, g: BinaryForm) -> BinaryForm:
    """Product of two binary forms."""
    out = [Fraction(0)] * (f.degree + g.degree + 1)
    for i, a in enumerate(f.coeffs):
        if a:
            for j, b in enumerate(g.coeffs):
                out[i + j] += a * b
    return BinaryForm(tuple(out))


def scale(c, f: BinaryForm) -> BinaryForm:
    return BinaryForm(tuple(Fraction(c) * a for a in f.coeffs))


class SquarefreeDecomposition(namedtuple("SquarefreeDecomposition", "constant parts")):
    """f = constant * prod part^multiplicity, with the parts squarefree,
    pairwise coprime and nonconstant, and the multiplicities distinct;
    ``parts`` holds (BinaryForm, multiplicity) pairs."""

    __slots__ = ()

    @property
    def separation_property(self) -> bool:
        """SP of the form's special-linear orbit: some part has multiplicity 1,
        i.e. some linear factor over the algebraic closure appears once."""
        return any(mult == 1 for _, mult in self.parts)

    def reconstruct(self) -> BinaryForm:
        if not self.parts:
            raise InternalError("squarefree decomposition has no parts")
        return scale(self.constant, BinaryForm.from_factors(self.parts))


def squarefree_multiplicity_parts(f: BinaryForm) -> SquarefreeDecomposition:
    """Squarefree multiplicity decomposition of a binary form.

    Works on the dehomogenization f(x, 1) by repeated gcds; the factor y
    carries multiplicity degree(f) - degree(f(x, 1)) and is merged into
    the part of equal multiplicity when one exists.
    """
    n = f.degree
    h = f.coeffs
    y_mult = next(m for m in range(n + 1) if h[m] != 0)
    # Ascending coefficients of f(x, 1): coefficient of x^j is h[n - j].
    p = _trim(h[n - j] for j in range(n + 1))
    by_mult: dict[int, BinaryForm] = {}
    if _deg(p) > 0:
        for part, mult in _yun(p):
            e = _deg(part)
            coeffs = tuple(part[e - m] for m in range(e + 1))
            by_mult[mult] = BinaryForm(coeffs)
    constant = p[-1]
    if y_mult > 0:
        y_form = BinaryForm((Fraction(0), Fraction(1)))
        if y_mult in by_mult:
            by_mult[y_mult] = multiply(by_mult[y_mult], y_form)
        else:
            by_mult[y_mult] = y_form
    parts = tuple(sorted(by_mult.items()))
    return SquarefreeDecomposition(
        constant, tuple((form, mult) for mult, form in parts)
    )


def decide_sp_binary_orbit(f: BinaryForm) -> bool:
    """Whether the special-linear orbit of f has the separation property
    (``SquarefreeDecomposition.separation_property``)."""
    return squarefree_multiplicity_parts(f).separation_property


def substitute(f: BinaryForm, matrix) -> BinaryForm:
    """Apply the linear substitution x -> a x + b y, y -> c x + d y."""
    (a, b), (c, d) = matrix
    a, b, c, d = (Fraction(v) for v in (a, b, c, d))
    if a * d - b * c == 0:
        raise InputError("substitution matrix must be invertible")
    n = f.degree
    x_img = BinaryForm((a, b))
    y_img = BinaryForm((c, d))
    total = [Fraction(0)] * (n + 1)
    for m, coeff in enumerate(f.coeffs):
        if coeff == 0:
            continue
        term = BinaryForm.from_factors([(x_img, n - m), (y_img, m)])
        for k, v in enumerate(term.coeffs):
            total[k] += coeff * v
    return BinaryForm(tuple(total))


_NUMERAL = "[0-9]+(?:/[0-9]+)?"  # ASCII digits only, as in every numeral torsep reads
_FACTOR_RE = re.compile(rf"(?P<num>{_NUMERAL})|(?P<var>[xy])(?:\^(?P<exp>[0-9]{{1,9}}))?")
_SIGNED_NUMERAL = re.compile(rf"[+-]?{_NUMERAL}")


def read_numeral(numeral: str, what: str, kind=Fraction):
    """``kind(numeral)``; a zero denominator or an over-long numeral is an InputError."""
    try:
        return kind(numeral)
    except ZeroDivisionError:
        raise InputError(f"{what}{numeral!r} has a zero denominator") from None
    except ValueError:  # a numeral past ``sys.get_int_max_str_digits()``
        raise InputError(f"{what}numeral of {len(numeral)} characters is longer "
                         "than the interpreter reads") from None


def form_from_coeffs(coeffs) -> BinaryForm:
    """The form of a JSON ``coeffs`` list.  Each entry is a JSON integer, or a
    string in the form text's numeral grammar with an optional sign."""
    if not isinstance(coeffs, list):
        raise InputError("'coeffs' must be a list")
    check_form_degree(len(coeffs) - 1)
    for c in coeffs:
        if not (type(c) is int or isinstance(c, str) and _SIGNED_NUMERAL.fullmatch(c)):
            raise InputError(f"'coeffs' entry {c!r} is not a JSON integer or numeral string")
    return BinaryForm([c if type(c) is int else read_numeral(c, "coefficient ") for c in coeffs])


def parse_form(text: str) -> BinaryForm:
    """Parse a homogeneous binary form such as 'x^2*y^2 - 3*x^4', of
    degree at most ``MAX_FORM_DEGREE``."""
    stripped = text.replace(" ", "")
    if not stripped:
        raise InputError("empty form")
    # A term is a sign and the text up to the next sign; the last match is empty.
    terms = [m for m in re.finditer(r"(?P<sign>[+-]?)(?P<body>[^+-]*)", stripped) if m[0]]
    for m in terms:  # every dangling sign is reported before any factor is read
        if not m["body"]:
            raise InputError(f"dangling sign in form at position {m.end()}")
    monomials = []
    for m in terms:
        coeff = Fraction(-1 if m["sign"] == "-" else 1)
        ex = ey = 0
        for factor in m["body"].split("*"):
            match = _FACTOR_RE.fullmatch(factor)
            if not match:
                raise InputError(f"cannot parse factor {factor!r}")
            if match["num"]:
                coeff *= read_numeral(factor, "coefficient ")
            else:
                e = int(match["exp"]) if match["exp"] else 1
                if match["var"] == "x":
                    ex += e
                else:
                    ey += e
        monomials.append((coeff, ex, ey))
    degree = max(ex + ey for _, ex, ey in monomials)
    if degree < 1:
        raise InputError("a binary form must have degree at least 1")
    check_form_degree(degree)
    coeffs = [Fraction(0)] * (degree + 1)
    for coeff, ex, ey in monomials:
        if ex + ey != degree:
            raise InputError("form is not homogeneous")
        coeffs[ey] += coeff
    return BinaryForm(tuple(coeffs))


def form_to_string(f: BinaryForm) -> str:
    """Render a binary form as monomials in x and y."""
    n = f.degree
    pieces = []
    for m, coeff in enumerate(f.coeffs):
        if coeff == 0:
            continue
        factors = []
        if n - m > 0:
            factors.append("x" + (f"^{n - m}" if n - m > 1 else ""))
        if m > 0:
            factors.append("y" + (f"^{m}" if m > 1 else ""))
        body = "*".join(factors) if factors else "1"
        if abs(coeff) != 1 or not factors:
            body = f"{abs(coeff)}*{body}" if factors else str(abs(coeff))
        pieces.append(("- " if coeff < 0 else "+ ") + body)
    text = " ".join(pieces)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]
