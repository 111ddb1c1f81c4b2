"""Arithmetic re-verification of verdict certificates.

``KINDS`` gives each certificate kind the properties, outcome and modes
it certifies, and a checker that re-derives its claims by exact
arithmetic on the input weights: dot products, identities, ranks and,
for the strata-based kinds, smallest faces.  ``check_verdict`` returns a
list of problems (empty means verified; a kind under any other claim is
one), and ``verify_verdict`` raises.  Each rational vector is multiplied
by the lcm L of its denominators, so checks run on ints (w . gamma >= 1
as w . L gamma >= L); a float entry makes the certificate malformed.

No checker builds the face lattice.  The strata are the faces of the
weight cone, and the lattice is the closure of the facet zero sets
under intersection, so a set S of positions is a stratum iff S equals
the intersection of the facets whose zero sets hold S, which is
``smallest_face(ws, S)``.  The least stratum, ``smallest_face(ws, ())``,
holds the coordinates that vanish nowhere.  A face that holds i holds
the smallest face of i, itself a face and the lowest stratum holding i
(a holding ``strata-*`` certificate lists one per weight), so
x_{j+1} = 0 forces x_{i+1} = 0 iff j is in ``smallest_face(ws, (i,))``.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .cones import WeightSystem, homogenize, smallest_face, supports_face
from .errors import InputError, InternalError
from .linalg import clear_denominators, combine, determinant, dot, is_zero_vector, rank
from .verdict import MODES, Verdict


def _require(problems, condition, message):
    if not condition:
        problems.append(message)


def _valid_indices(problems, ks, bound, what: str) -> bool:
    """Record a problem for each entry of ``ks`` that is not an int (not a
    bool) k with 0 <= k < bound; return whether there is none."""
    bad = [k for k in ks if isinstance(k, bool) or not (isinstance(k, int) and 0 <= k < bound)]
    for k in bad:
        problems.append(f"malformed certificate: {what} {k!r} is not a position below {bound}")
    return not bad


def _relation(problems, ws, vector, what: str):
    """``vector`` as ints (its denominators cleared), recording a problem
    unless it has one entry per weight, is nonzero and sums the weights to zero."""
    c = clear_denominators(vector)[0]
    _require(problems, len(c) == ws.n, f"{what} has wrong length")
    _require(problems, not is_zero_vector(c), f"{what} is zero")
    _require(problems, is_zero_vector(combine(ws.weights, c)),
             f"{what} does not sum the weights to zero")
    return c


def _valid_pair(problems, ws, pair) -> bool:
    _require(problems, len(pair) == 2, "pair must have two entries")
    if len(pair) != 2 or not _valid_indices(problems, pair, ws.n, "pair index"):
        return False
    _require(problems, pair[0] != pair[1], "pair entries must differ")
    return True


def _check_vacuous(problems, ws, cert, reading):
    _require(problems, ws.n == 1, "vacuous rule applies only to a single weight")


def _face_witness_table(problems, ws, cert):
    """Check each face witness f_i >= 0 on every weight and 0 at w_i, so its
    zero set is a face holding the minimal face of w_i.  Return where each
    f_i is >= 1."""
    witnesses = cert["face_witnesses"]
    _require(problems, len(witnesses) == ws.n, "one face witness per weight required")
    table = []
    for i in range(ws.n):
        gamma, scale = clear_denominators(witnesses[i])
        values = [dot(gamma, w) for w in ws.weights]
        _require(problems, min(values) >= 0 and values[i] == 0,
                 f"face witness {i} does not support a face holding weight {i}")
        table.append({j for j, v in enumerate(values) if v >= scale})
    return table


def _check_edge_separation(problems, ws, cert, reading):
    """SP holds: each f_i >= 1 at every other weight, with n >= 2 (n = 1
    is ``vacuous``).  A combination w_i = sum_k c_k w_k of the others,
    c >= 0, gives 0 = f_i.w_i >= sum_k c_k, so w_i = 0, but f_j.w_i >= 1
    for any j != i; and -w_i = sum_k c_k w_k gives
    -f_j.w_i <= -1 < 0 <= sum_k c_k f_j.w_k."""
    for i, ones in enumerate(_face_witness_table(problems, ws, cert)):
        _require(problems, len(ones - {i}) == ws.n - 1,
                 f"face witness {i} is below 1 at another weight")


def _check_zero_weight(problems, ws, cert, reading):
    if _valid_pair(problems, ws, cert["pair"]):
        i = cert["pair"][0]
        _require(problems, is_zero_vector(ws.weights[i]), f"weight {i} is not zero")


def _check_generator_in_cone(problems, ws, cert, reading):
    if not _valid_pair(problems, ws, cert["pair"]):
        return
    j, i = cert["pair"]
    lam, scale = clear_denominators(cert["coefficients"])
    _require(problems, len(lam) == ws.n, "coefficient vector has wrong length")
    _require(problems, all(x >= 0 for x in lam), "coefficients must be nonnegative")
    _require(problems, lam[i] == 0, "weight may not appear in its own combination")
    _require(problems, combine(ws.weights, lam) == tuple(scale * x for x in ws.weights[i]),
             "combination does not reproduce the weight")
    _require(problems, lam[j] > 0, "pair's first coordinate has zero coefficient")


def _check_line_in_cone(problems, ws, cert, reading):
    """A relation c >= 0 keeps x^c = 1 on the closure: x at ``pair[0]``
    never vanishes (SP), nor, if it is in c too, x at ``pair[1]`` (WSP)."""
    c = _relation(problems, ws, cert["relation"], "relation")
    _require(problems, all(x >= 0 for x in c), "relation must be nonnegative")
    for k in range(ws.n):
        if c[k] > 0:
            _require(problems, not is_zero_vector(ws.weights[k]),
                     "relation supported on a zero weight")
    pair = cert["pair"]
    if not _valid_pair(problems, ws, pair):
        return
    _require(problems, c[pair[0]] > 0, "pair's first coordinate not in the relation")
    if reading == "section":
        _require(problems, c[pair[1]] > 0, "pair's second coordinate not in the relation")


def _check_face_separation(problems, ws, cert, reading):
    """WSP holds: each pair i, j has f_i.w_j >= 1 or f_j.w_i >= 1, with
    n >= 2 (n = 1 is ``vacuous``).  Then w_j is off the zero set of f_i,
    which holds the minimal face of w_i, so their minimal faces differ.
    The cone is pointed too: one that holds a line has, as its lineality
    space, a face generated by at least two nonzero weights; every face
    holds that space, so f_i.w_j = f_j.w_i = 0 for two such weights."""
    table = _face_witness_table(problems, ws, cert)
    for i, j in combinations(range(ws.n), 2):
        if j not in table[i] and i not in table[j]:
            problems.append(f"no face witness separates weights {i} and {j}")


def _check_shared_face(problems, ws, cert, reading):
    pair = cert["pair"]
    if not (_valid_pair(problems, ws, pair)
            and _valid_indices(problems, cert["face_indices"], ws.n, "face index")):
        return
    shared = set(cert["face_indices"])
    _require(problems, set(pair) <= shared, "pair must lie on the shared face")
    _require(problems, supports_face(ws, shared, cert["face_witness"]),
             "face witness does not support the shared face")
    relations = cert["relations"]
    _require(problems, len(relations) == 2, "one relation per pair member required")
    for idx, rel in zip(pair, relations):  # relation k belongs to pair[k]
        (mult, *coeffs), scale = clear_denominators((rel["multiplier"], *rel["coefficients"]))
        _require(problems, mult >= scale, "relation multiplier must be positive")
        _require(problems, len(coeffs) == ws.n, "relation has wrong length")
        for k in range(ws.n):
            if k == idx:
                _require(problems, coeffs[k] == 0, f"relation of weight {k} uses weight {k}")
            elif k in shared:
                _require(problems, coeffs[k] >= scale, "interior relation needs all face weights")
            else:
                _require(problems, coeffs[k] == 0, "relation supported off the face")
        _require(problems,
                 tuple(mult * x for x in ws.weights[idx]) == combine(ws.weights, coeffs),
                 "interior relation identity fails")


def _check_full_rank(problems, ws, cert, reading):
    indices = cert["row_indices"]
    _require(problems, len(indices) == ws.n, "need as many rows as weights")
    if not _valid_indices(problems, indices, ws.dim, "row index"):
        return
    rows = tuple(zip(*ws.weights))
    _require(problems, determinant([rows[i] for i in indices]) != 0,
             "certifying minor is singular")
    if "cone_functional" in cert:  # optional: independent weights always have one
        _check_cone_functional(problems, ws, cert)


def _check_cone_functional(problems, ws, cert):
    """``cone_functional`` is 1 on every weight: the closure is a cone, as affine SSP needs."""
    u, scale = clear_denominators(cert["cone_functional"])
    _require(problems, all(dot(u, w) == scale for w in ws.weights),
             "cone functional does not take value 1")


def _check_kernel_witness(problems, ws, cert, reading):
    """SSP fails: the face S avoids both pair positions, so |S| <= n - 2,
    and rank(S) >= r - 1 (r the rank of the weights) gives r <= n - 1, so
    the weights are dependent; no relation vector is needed to show it."""
    pair = cert["pair"]
    if not (_valid_pair(problems, ws, pair)
            and _valid_indices(problems, cert["stratum_indices"], ws.n, "stratum index")):
        return
    s = set(cert["stratum_indices"])
    _require(problems, not (s & set(pair)), "stratum must avoid the pair")
    _require(problems, supports_face(ws, s, cert["stratum_witness"]),
             "stratum witness does not support the stratum")
    _require(problems, rank([ws.weights[k] for k in s]) >= rank(ws.weights) - 1,
             "stratum not deep enough to witness failure")
    _check_cone_functional(problems, ws, cert)


def _check_affine_dependence(problems, ws, cert, reading):
    _relation(problems, ws, cert["relation"], "relation")


def _check_strata_missed(problems, ws, cert, reading):
    if _valid_pair(problems, ws, cert["pair"]):
        _require(problems, cert["pair"][0] in smallest_face(ws, ()).indices,
                 "coordinate does vanish somewhere")


def _check_strata_forcing(problems, ws, cert, reading):
    if not _valid_pair(problems, ws, cert["pair"]):
        return
    j, i = cert["pair"]
    _require(problems, j in smallest_face(ws, (i,)).indices, "forcing pair does not force")


def _stratum_table(problems, ws, cert):
    """Check each listed S_k is a stratum holding k: valid positions, its
    own smallest face, with k in it.  Return the strata as sets."""
    listed = cert["strata"]
    _require(problems, len(listed) == ws.n, "one stratum per weight required")
    table = [tuple(listed[k]) for k in range(ws.n)]
    for k, s in enumerate(table):
        if _valid_indices(problems, s, ws.n, "stratum index"):
            _require(problems, smallest_face(ws, s).indices == s, f"entry {k} is not a stratum")
            _require(problems, k in s, f"stratum {k} does not hold weight {k}")
    return [set(s) for s in table]


def _check_strata_separation(problems, ws, cert, reading):
    """SP holds: each S_j is {j}, a stratum holding j and missing each i != j,
    so it splits (i, j); with n >= 2 no coordinate is in every stratum."""
    for j, s in enumerate(_stratum_table(problems, ws, cert)):
        _require(problems, s <= {j}, f"stratum {j} holds another weight")


def _check_strata_equivalent(problems, ws, cert, reading):
    if not _valid_pair(problems, ws, cert["pair"]):
        return
    i, j = cert["pair"]
    _require(problems, j in smallest_face(ws, (i,)).indices
             and i in smallest_face(ws, (j,)).indices, "pair is distinguished by some stratum")


def _check_strata_distinguished(problems, ws, cert, reading):
    """WSP holds: for each pair i, j, S_i misses j or S_j misses i, and a
    stratum holding one of the two and missing the other distinguishes them."""
    table = _stratum_table(problems, ws, cert)
    for i, j in combinations(range(ws.n), 2):
        if j in table[i] and i in table[j]:
            problems.append(f"no stratum distinguishes weights {i} and {j}")


# Each kind's checker, properties, outcome (True: holds), the modes the deciders and
# oracles make it for, and what its ``pair`` reads as under each of those properties;
# a checker is called with the reading of the verdict's property.
Kind = namedtuple("Kind", "check properties holds modes pair")
KINDS = {
    "vacuous": Kind(_check_vacuous, ("SP", "WSP"), True, MODES, ()),
    "edge-separation": Kind(_check_edge_separation, ("SP",), True, MODES, ()),
    "strata-separation": Kind(_check_strata_separation, ("SP",), True, MODES, ()),
    "zero-weight": Kind(_check_zero_weight, ("SP",), False, MODES, ("missed",)),
    "generator-in-cone": Kind(_check_generator_in_cone, ("SP",), False, MODES, ("forcing",)),
    "strata-missed-hyperplane": Kind(_check_strata_missed, ("SP",), False, MODES, ("missed",)),
    "strata-forcing-pair": Kind(_check_strata_forcing, ("SP",), False, MODES, ("forcing",)),
    "face-separation": Kind(_check_face_separation, ("WSP",), True, MODES, ()),
    "strata-distinguished": Kind(_check_strata_distinguished, ("WSP",), True, MODES, ()),
    "shared-face-interior": Kind(_check_shared_face, ("WSP",), False, MODES, ("section",)),
    "strata-equivalent-pair": Kind(_check_strata_equivalent, ("WSP",), False, MODES, ("section",)),
    "line-in-cone": Kind(_check_line_in_cone, ("SP", "WSP"), False, MODES, ("missed", "section")),
    "full-rank": Kind(_check_full_rank, ("SSP",), True, ("affine",), ()),
    "kernel-witness": Kind(_check_kernel_witness, ("SSP",), False, ("affine",), ("codimension",)),
    "affine-independent": Kind(_check_full_rank, ("SSP",), True, ("projective",), ()),
    "affine-dependence": Kind(_check_affine_dependence, ("SSP",), False, ("projective",), ()),
}


def pair_reading(verdict: Verdict) -> str | None:
    """What the verdict's ``pair`` reads as under its property (``KINDS``), or None."""
    kind = KINDS.get(verdict.kind)
    return kind and dict(zip(kind.properties, kind.pair)).get(verdict.property_name)


def check_verdict(ws: WeightSystem, verdict: Verdict) -> list[str]:
    """Re-verify a verdict's certificate; returns a list of problems."""
    kind = KINDS.get(verdict.kind)
    if kind is None:
        return [f"unknown certificate kind {verdict.kind!r}"]
    problems: list[str] = []
    _require(problems, verdict.holds == kind.holds,
             f"{verdict.kind} certifies a {'holding verdict' if kind.holds else 'failure'}")
    _require(problems, verdict.property_name in kind.properties and verdict.mode in kind.modes,
             f"{verdict.kind} is no {verdict.property_name} ({verdict.mode}) certificate")
    target = homogenize(ws) if verdict.mode == "projective" else ws
    try:
        kind.check(problems, target, verdict.certificate, pair_reading(verdict))
    except (InputError, KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(f"malformed certificate: {exc!r}")
    return problems


def verify_verdict(ws: WeightSystem, verdict: Verdict) -> None:
    """Raise InternalError unless the verdict's certificate re-verifies."""
    problems = check_verdict(ws, verdict)
    if problems:
        raise InternalError(
            f"certificate for {verdict.property_name} ({verdict.mode}) failed: "
            + "; ".join(problems)
        )
