import random
from fractions import Fraction

import pytest

from torsep.binary_forms import (
    BinaryForm,
    _gcd,
    decide_sp_binary_orbit,
    form_to_string,
    multiply,
    parse_form,
    squarefree_multiplicity_parts,
    substitute,
)
from torsep.errors import InputError


def _dehomogenize(form: BinaryForm):
    n = form.degree
    coeffs = [form.coeffs[n - j] for j in range(n + 1)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_parts_visible_square():
    parts = squarefree_multiplicity_parts(parse_form("x^2*y^2")).parts
    assert [(form_to_string(p), m) for p, m in parts] == [("x*y", 2)]


def test_parts_single_linear_factor():
    f = parse_form("x*y^4")
    parts = squarefree_multiplicity_parts(f).parts
    assert [(form_to_string(p), m) for p, m in parts] == [("x", 1), ("y", 4)]


def test_parts_irreducible_square():
    f = BinaryForm((1, 0, 2, 0, 1))  # (x^2 + y^2)^2
    parts = squarefree_multiplicity_parts(f).parts
    assert [(form_to_string(p), m) for p, m in parts] == [("x^2 + y^2", 2)]


def test_decide_examples():
    for n in range(2, 7):
        f = BinaryForm.from_factors(
            [(parse_form("x"), 1), (parse_form("y"), n - 1)]
        )
        assert decide_sp_binary_orbit(f)
    assert not decide_sp_binary_orbit(parse_form("x^2"))
    assert not decide_sp_binary_orbit(parse_form("x^2*y^2"))
    assert not decide_sp_binary_orbit(BinaryForm((1, 0, 2, 0, 1)))
    assert decide_sp_binary_orbit(parse_form("x*y^2 + 3*x^2*y + 9/4*x^3"))


def test_reconstruction_exact():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randrange(1, 7)
        coeffs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = Fraction(1)
        f = BinaryForm(tuple(coeffs))
        decomposition = squarefree_multiplicity_parts(f)
        assert decomposition.reconstruct().coeffs == f.coeffs


def test_parts_pairwise_coprime_and_squarefree():
    rng = random.Random(52)
    for _ in range(30):
        n = rng.randrange(2, 7)
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in range(n + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[-1] = Fraction(1)
        decomposition = squarefree_multiplicity_parts(BinaryForm(tuple(coeffs)))
        parts = decomposition.parts
        multiplicities = [m for _, m in parts]
        assert len(set(multiplicities)) == len(multiplicities)
        for idx, (p, _) in enumerate(parts):
            # Squarefree over the closure: the form and the derivative of
            # its dehomogenization share no factor, and y divides it at
            # most once (checked via the top two coefficients).
            dp = _dehomogenize(p)
            if len(dp) > 1:
                deriv = tuple(i * dp[i] for i in range(1, len(dp)))
                assert len(_gcd(dp, deriv)) <= 1
            assert p.coeffs[-1] != 0 or p.coeffs[-2] != 0
            for q, _ in parts[idx + 1:]:
                g = _gcd(_dehomogenize(p), _dehomogenize(q))
                assert len(g) <= 1


def _squarefree(p) -> bool:
    return len(_gcd(p, tuple(i * p[i] for i in range(1, len(p))))) <= 1


def test_seeded_products_split_by_multiplicity():
    """g^a * h^b for seeded dense forms g and h, squarefree, coprime and
    not divisible by y, up to degree 70: the parts have the multiplicities
    a and b with the degrees of g and h, and reconstruct() returns the
    product."""
    rng = random.Random(56)
    for size_g, size_h, a, b in ((1, 1, 1, 2), (2, 3, 3, 1), (4, 2, 1, 1),
                                 (5, 7, 2, 3), (30, 35, 1, 1), (25, 15, 1, 3)):
        while True:
            g, h = (BinaryForm(tuple(rng.randint(-3, 3) for _ in range(size)) + (1,))
                    for size in (size_g, size_h))
            dg, dh = _dehomogenize(g), _dehomogenize(h)
            if (g.coeffs[0] and h.coeffs[0] and _squarefree(dg) and _squarefree(dh)
                    and len(_gcd(dg, dh)) == 1):
                break
        f = BinaryForm.from_factors([(g, a), (h, b)])
        decomposition = squarefree_multiplicity_parts(f)
        expected = {a: size_g, b: size_h} if a != b else {a: size_g + size_h}
        assert {m: p.degree for p, m in decomposition.parts} == expected
        assert decomposition.reconstruct().coeffs == f.coeffs


def test_degree_bookkeeping():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randrange(1, 8)
        coeffs = [Fraction(rng.randint(-2, 2)) for _ in range(n + 1)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(n + 1)] = Fraction(2)
        f = BinaryForm(tuple(coeffs))
        parts = squarefree_multiplicity_parts(f).parts
        assert sum(m * p.degree for p, m in parts) == n


def test_substitution_invariance():
    rng = random.Random(54)
    forms = [
        parse_form("x*y^3"),
        parse_form("x^2"),
        parse_form("x^2*y^2"),
        BinaryForm((1, 0, 2, 0, 1)),
        parse_form("x^3 - y^3"),
    ]
    for f in forms:
        expected = decide_sp_binary_orbit(f)
        for _ in range(25):
            while True:
                entries = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(4)]
                if entries[0] * entries[3] - entries[1] * entries[2] != 0:
                    break
            g = ((entries[0], entries[1]), (entries[2], entries[3]))
            assert decide_sp_binary_orbit(substitute(f, g)) == expected
        assert decide_sp_binary_orbit(BinaryForm(tuple(3 * c for c in f.coeffs))) == expected


def test_substitute_composes_with_multiplication():
    f = parse_form("x*y")
    g = ((1, 1), (0, 1))  # x -> x + y, y -> y
    image = substitute(f, g)
    assert image.coeffs == parse_form("x*y + y^2").coeffs
    product = multiply(parse_form("x"), parse_form("y"))
    assert product.coeffs == f.coeffs


def test_parse_and_render_round_trip():
    for text in ("x^2*y^2 - 3*x^4", "x*y^3", "-x^2 + 2*x*y - y^2", "1/2*x^3 - y^3"):
        f = parse_form(text)
        assert parse_form(form_to_string(f)).coeffs == f.coeffs


def test_parse_rejects_bad_input():
    with pytest.raises(InputError):
        parse_form("x^2 + y")  # not homogeneous
    with pytest.raises(InputError):
        parse_form("")
    with pytest.raises(InputError):
        parse_form("3 + 4")  # degree zero
    with pytest.raises(InputError):
        parse_form("x^2 * z")


@pytest.mark.parametrize("text, position", [("xz+-y", 3), ("x+", 2), ("--x", 1)])
def test_dangling_sign_is_reported_before_any_factor(text, position):
    """Every term is checked for a sign with no term after it before any
    factor is read: in 'xz+-y' the dangling sign wins over the bad factor
    'xz' before it.  Positions count after the spaces are removed."""
    with pytest.raises(InputError, match=rf"^dangling sign in form at position {position}$"):
        parse_form(text)


def test_parse_reads_a_leading_plus_sign():
    assert parse_form("+x*y - y^2").coeffs == (0, 1, -1)


def test_form_validation():
    with pytest.raises(InputError):
        BinaryForm((Fraction(1),))
    with pytest.raises(InputError):
        BinaryForm((0, 0, 0))
    with pytest.raises(InputError):
        substitute(parse_form("x^2"), ((1, 1), (1, 1)))
