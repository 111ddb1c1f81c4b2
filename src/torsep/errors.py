"""Exception hierarchy shared by all torsep modules."""


class TorsepError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TorsepError):
    """Malformed input: bad dimensions, non-integer entries, parse failures."""


class HypothesisError(TorsepError):
    """A decision procedure's hypothesis is not satisfied by the input.

    The offending check is reported, never silently guessed around.
    """


class ResourceGuardError(TorsepError):
    """A size guard, a constant no option sets, was exceeded: a face lattice
    of more than ``cones.MAX_FACES`` faces, a Graver completion over more than
    ``ideals.MAX_WEIGHTS`` weights or forming more than ``ideals.MAX_NODES``
    critical pairs, a binary form of degree above ``binary_forms.MAX_FORM_DEGREE``,
    or a report integer longer than the interpreter's digit limit for writing one."""


class InternalError(TorsepError):
    """A computed certificate failed its own exactness check, or two of the
    program's computations disagree (say the SSP rank test and the facet
    scan).  Always a hard error."""
