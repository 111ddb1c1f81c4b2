"""The Verdict type shared by the theorem deciders and the stratum oracle.

A verdict pairs a holds/fails decision with a certificate: a plain dict
whose ``kind`` field selects one of the documented certificate shapes
(see ``torsep.verification`` for the exact arithmetic checks each kind
must pass).  Ordered coordinate pairs ``(j, i)`` in certificates always
mean "x_{j+1} = 0 forces x_{i+1} = 0 on the closure".

For projective verdicts the certificate data refers to the homogenized
weights (each weight with an appended coordinate 1); index data is
unaffected by homogenization and refers to the original positions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import InputError

PROPERTIES = ("SP", "WSP", "SSP")
MODES = ("affine", "projective")


@dataclass(frozen=True)
class Verdict:
    property_name: str
    mode: str
    holds: bool
    certificate: Mapping[str, Any]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.property_name not in PROPERTIES:
            raise InputError(f"unknown property {self.property_name!r}")
        if self.mode not in MODES:
            raise InputError(f"unknown mode {self.mode!r}")
        if not isinstance(self.holds, bool):
            raise InputError(f"holds must be a bool, not {self.holds!r}")
        if not isinstance(self.certificate, Mapping):
            raise InputError("certificate must be a mapping")
        if not isinstance(self.certificate.get("kind"), str):
            raise InputError("certificate needs a string 'kind'")

    @property
    def kind(self) -> str:
        return self.certificate["kind"]


_VACUOUS_REASON = (
    "a single coordinate admits no pair of linearly independent linear forms"
)


def vacuous(property_name: str, mode: str, notes: tuple[str, ...] = ()) -> Verdict:
    """The holding verdict of a single-coordinate system."""
    return Verdict(property_name, mode, True,
                   {"kind": "vacuous", "reason": _VACUOUS_REASON}, notes)
