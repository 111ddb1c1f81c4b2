"""The result records are named tuples: the semantics callers rely on
(hashing, ordering, immutability, constructor messages) and what the
command line's start-up must not import to build them."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import clear_cone_caches
from torsep import cli, cones
from torsep.binary_forms import BinaryForm, SquarefreeDecomposition, parse_form
from torsep.cones import ConeFace, EdgeConditions, PointednessResult, WeightSystem
from torsep.errors import InputError
from torsep.ideals import Binomial, ScanResult, VanishingReport
from torsep.lp import ConeMembership, FeasibilityResult
from torsep.reports import Instance, Report, parse_json_instance
from torsep.strata import SspWitness, Stratum
from torsep.verdict import Verdict

ROOT = Path(__file__).resolve().parents[1]

_MEMBER = ConeMembership(True, coefficients=(Fraction(1),))
RECORDS = [
    WeightSystem(2, ((1, 0), (0, 1))),
    ConeFace((0,), (0, 1)),
    PointednessResult(True, functional=(1, 1)),
    EdgeConditions(0, True, True, _MEMBER, _MEMBER),
    FeasibilityResult(True, solution=(Fraction(1, 2),)),
    _MEMBER,
    Binomial((1, 0), (0, 1)),
    ScanResult(False),
    VanishingReport(7, 1, 0, ()),
    Stratum((0, 1), (0, 0), 2),
    SspWitness((0, 1), ConeFace((2,), (1, 1, 0)), 2),
    BinaryForm((1, 0, -1)),
    SquarefreeDecomposition(Fraction(1), ((BinaryForm((1, -1)), 1),)),
    Verdict("SP", "affine", True, {"kind": "vacuous"}, notes=("n",)),
    Instance("weights", WeightSystem(1, ((1,),))),
    Report("decide", Instance("weights", WeightSystem(1, ((1,),))), {}),
]


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    """Importing the command line pulls in none of the modules that made
    half its start-up time.  ``-S`` keeps ``site`` from importing
    ``typing`` on its own."""
    probe = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import torsep.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_equal_weight_systems_share_a_facets_cache_entry():
    clear_cone_caches()
    first = cones.facets(WeightSystem(2, ((1, 0), (0, 1), (1, 1))))
    again = cones.facets(WeightSystem.from_rows([[1, 0], [0, 1], [1, 1]]))
    assert again is first
    assert cones.facets.cache_info().hits == 1


def test_records_render_as_polynomials():
    assert str(Binomial.from_vector((0, 2, -1))) == "x2^2 - x3"
    assert str(parse_form("x*y^3 - x^4")) == "-x^4 + x*y^3"


def test_binomials_sort_by_exponents():
    binomials = [Binomial.from_vector(c) for c in
                 [(1, -1, 0), (2, -1, 0), (1, 0, -2), (0, 3, -1), (0, 0, 1)]]
    assert [b.to_string() for b in sorted(binomials)] == [
        "x3 - 1", "x2^3 - x3", "x1 - x3^2", "x1 - x2", "x1^2 - x2"]
    assert sorted(binomials) == sorted(binomials, key=lambda b: (b.a, b.b))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_tuples(record):
    assert isinstance(record, tuple)
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_reports_share_no_mutable_default():
    """Two reports built without ``verdicts`` or ``extra`` share nothing
    a caller could change; a default ``extra`` is written as ``{}``."""
    first, second = (Report("decide", RECORDS[-2], {}) for _ in range(2))
    assert (first.verdicts, first.verified, first.extra) == ((), (), None)
    assert first.to_json()["extra"] == {}
    assert first.to_json()["extra"] is not second.to_json()["extra"]


@pytest.mark.parametrize("build, message", [
    (lambda: WeightSystem(0, ((),)), "weight dimension must be at least 1"),
    (lambda: WeightSystem(1, ()), "at least one weight is required"),
    (lambda: WeightSystem(2, ((1,),)), "weight 0 has length 1, expected 2"),
    (lambda: WeightSystem(1, ((True,),)), "non-integer entry True in weight 0"),
    (lambda: WeightSystem(1, ((1.5,),)), "non-integer entry 1.5 in weight 0"),
    (lambda: Binomial((1,), (0, 1)), "exponent vectors must have equal length"),
    (lambda: Binomial((-1,), (0,)), "exponents must be nonnegative"),
    (lambda: Binomial((1,), (1,)), "supports must be disjoint"),
    (lambda: BinaryForm((1,)), "a binary form must have degree at least 1"),
    (lambda: BinaryForm((0, 0)), "the zero form is not allowed"),
    (lambda: Verdict("XP", "affine", True, {"kind": "k"}), "unknown property 'XP'"),
    (lambda: Verdict("SP", "flat", True, {"kind": "k"}), "unknown mode 'flat'"),
    (lambda: Verdict("SP", "affine", 1, {"kind": "k"}), "holds must be a bool, not 1"),
    (lambda: Verdict("SP", "affine", True, [("kind", "k")]), "certificate must be a mapping"),
    (lambda: Verdict("SP", "affine", True, {}), "certificate needs a string 'kind'"),
])
def test_record_constructors_keep_their_messages(build, message):
    with pytest.raises(InputError) as excinfo:
        build()
    assert str(excinfo.value) == message


@pytest.mark.parametrize("dim, weights, message", [
    ("2", ((1, 2),), "weight dimension must be an integer, not '2'"),
    (True, ((1,),), "weight dimension must be an integer, not True"),
    (1.0, ((1,),), "weight dimension must be an integer, not 1.0"),
    (2, [5], "weight 0 must be a list or tuple, not int"),
    (2, ["ab"], "weight 0 must be a list or tuple, not str"),
])
def test_weight_system_refuses_what_is_not_a_weight_system(dim, weights, message):
    with pytest.raises(InputError) as excinfo:
        WeightSystem(dim, weights)
    assert str(excinfo.value) == message


def test_constructors_normalise_their_fields():
    ws = WeightSystem(1, [[1], [2]])
    assert ws.weights == ((1,), (2,)) and type(ws.weights[0]) is tuple
    assert BinaryForm([1, "1/2"]).coeffs == (Fraction(1), Fraction(1, 2))
    assert Verdict("SP", "affine", True, {"kind": "k"}).notes == ()


def _plain_tuples_only(value, path="report"):
    """Every tuple inside ``value`` is a plain tuple: a record reaching the
    JSON encoder would be written as an array instead of being refused."""
    if isinstance(value, dict):
        for key, item in value.items():
            _plain_tuples_only(item, f"{path}.{key}")
    elif isinstance(value, (list, tuple)):
        assert type(value) in (list, tuple), f"{path} is a {type(value).__name__}"
        for k, item in enumerate(value):
            _plain_tuples_only(item, f"{path}[{k}]")
    else:
        assert value is None or type(value) in (str, int, bool, float, Fraction), path


def test_reports_hand_the_encoder_no_record():
    """Every ``perfbench/catalog.json`` instance, under its own command."""
    catalog = json.loads((ROOT / "perfbench" / "catalog.json").read_text(encoding="utf-8"))
    parser = cli._build_parser()
    runs = 0
    for entries in catalog["workloads"].values():
        for entry in entries:
            args = parser.parse_args([*entry["argv"], "-"])
            instance = parse_json_instance(json.dumps({"d": entry["d"],
                                                       "weights": entry["weights"]}))
            _plain_tuples_only(cli.run_command(args.command, instance, args).to_json())
            runs += 1
    assert runs == 260
