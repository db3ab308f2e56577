"""Semantic exception hierarchy for the engine.

Public functions never raise bare ValueError/TypeError for contract
violations; they raise one of these so callers (and the CLI) can map
failures to diagnostics and exit codes.  `_number` is the one rule for what
a numeric setting is: one of the wrong type fails its range check
(`_check_int` for the integer ones).
"""

import math
import numbers


def _number(value, integral: bool = False):
    """value when it is a real number, an int when integral (a bool or a str
    is neither), so `_number(value) is value` tests for one; else NaN, which
    fails every range check."""
    kind = int if integral else numbers.Real
    return value if isinstance(value, kind) and not isinstance(value, bool) else math.nan


def _check_int(value: int, least: int, what: str) -> None:
    """InvalidArgument unless value is an int >= least (a bool is not one)."""
    if not _number(value, integral=True) >= least:
        raise InvalidArgument(f"{what} must be an integer >= {least}, got {value!r}")


class RandovaError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(RandovaError):
    """Outcome array shape contradicts the declared design."""


class NonFiniteEntry(RandovaError):
    """A potential outcome (or error draw) is NaN or infinite, or so large
    that the sums of squares could overflow."""


class NegativeErrorSd(RandovaError):
    """Technical-error standard deviation outside its domain."""


class ShapeMismatch(RandovaError):
    """Table, assignment, or error array dimensions disagree."""


class WrongDesign(RandovaError):
    """Operation defined for one design received the other."""


class SameTreatment(RandovaError):
    """A treatment contrast needs two distinct treatments."""


class DegenerateDesign(RandovaError):
    """The design has no residual degrees of freedom (e.g. a 2x2 Latin square)."""


class SpaceTooLarge(RandovaError):
    """Exact enumeration would exceed the configured cap; sample instead."""


class TechnicalErrorsPresent(RandovaError):
    """Exact randomization distributions require technical_error_sd == 0."""


class NegativeArgument(RandovaError):
    """Survival function evaluated at a negative point."""


class InvalidProbability(RandovaError):
    """Quantile probability outside (0, 1)."""


class InvalidDegreesOfFreedom(RandovaError):
    """Degrees of freedom must be integers >= 1."""


class ConvergenceFailure(RandovaError):
    """Continued-fraction evaluation hit its iteration cap without converging."""


class ParseError(RandovaError):
    """A table or report document is malformed; message names the field."""


class InvalidArgument(RandovaError, ValueError):
    """A setting or caller-built value is outside its domain (a ValueError too)."""


class InvalidAlpha(InvalidArgument):
    """Significance level outside (0, 1), or so small that 1 - alpha is 1."""
