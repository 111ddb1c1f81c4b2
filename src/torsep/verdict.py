"""The Verdict type shared by the theorem deciders and the stratum oracle.

A verdict pairs a holds/fails decision with a certificate: a plain dict
whose ``kind`` field names an entry of ``torsep.verification.KINDS``,
which states what the kind certifies and what its ``pair`` reads as.

For projective verdicts the certificate data refers to the homogenized
weights (each weight with an appended coordinate 1); index data is
unaffected by homogenization and refers to the original positions.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping

from .errors import InputError

PROPERTIES = ("SP", "WSP", "SSP")
MODES = ("affine", "projective")


class Verdict(namedtuple("Verdict", "property_name mode holds certificate notes")):
    __slots__ = ()

    def __new__(cls, property_name: str, mode: str, holds: bool,
                certificate: Mapping, notes: tuple[str, ...] = ()) -> "Verdict":
        if property_name not in PROPERTIES:
            raise InputError(f"unknown property {property_name!r}")
        if mode not in MODES:
            raise InputError(f"unknown mode {mode!r}")
        if not isinstance(holds, bool):
            raise InputError(f"holds must be a bool, not {holds!r}")
        if not isinstance(certificate, Mapping):
            raise InputError("certificate must be a mapping")
        if not isinstance(certificate.get("kind"), str):
            raise InputError("certificate needs a string 'kind'")
        return super().__new__(cls, property_name, mode, holds, certificate, notes)

    @property
    def kind(self) -> str:
        return self.certificate["kind"]


_VACUOUS_REASON = "a single coordinate admits no pair of linearly independent linear forms"


def vacuous(property_name: str, mode: str, notes: tuple[str, ...] = ()) -> Verdict:
    """The holding verdict of a single-coordinate system."""
    return Verdict(property_name, mode, True,
                   {"kind": "vacuous", "reason": _VACUOUS_REASON}, notes)
