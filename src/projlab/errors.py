"""Exception types shared across the package, and the JSON parser, field
reader and number and array casts that raise them."""

import json
import operator

import numpy as np


class ProjlabError(Exception):
    """Base class for all package-specific errors."""


class InputDomainError(ProjlabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class DegeneracyError(ProjlabError, ValueError):
    """A geometric configuration is degenerate (dependent vectors, coincident
    points, collapsed spans).  Carries the conditioning value in ``sigma``."""

    def __init__(self, message, sigma):
        super().__init__(f"{message} (sigma={sigma:.3e})")
        self.sigma = sigma


class SingularityError(DegeneracyError):
    """A matrix required to be invertible is singular by the rank rule, sigma_min ``sigma``."""


class PremiseViolationError(ProjlabError, ValueError):
    """A quantitative hypothesis needed for a bound failed on a concrete
    instance.  ``trial`` identifies which trial broke it, when applicable."""

    def __init__(self, message, trial=None):
        if trial is not None:
            message = f"{message} (trial {trial})"
        super().__init__(message)
        self.trial = trial


class ResourceBudgetError(ProjlabError, ValueError):
    """A requested computation exceeds the configured resource budget."""


class ConfigError(ProjlabError, ValueError):
    """An experiment configuration or a command-line flag is malformed; the
    message names the offending field or flag."""


def read_fields(doc, casts: dict, error: type, what: str) -> list:
    """Each field of the parsed JSON object ``doc``, read by its cast in
    ``casts``.  Raises ``error``, naming the document ``what`` and the field,
    when ``doc`` is not an object, a field is missing or a cast raises."""
    values = []
    for name, cast in casts.items():
        if not isinstance(doc, dict) or name not in doc:
            raise error(f"field {name}: missing from {what}")
        try:
            values.append(cast(doc[name]))
        except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
            raise error(f"{what} field {name}: {exc}") from exc
    return values


def config_check(name: str, check, *args):
    """``check(*args)``, with a library :class:`InputDomainError` or
    :class:`ResourceBudgetError` re-raised as a :class:`ConfigError` that
    names the field or flag ``name``, so an edge calls the rule's one body."""
    try:
        return check(*args)
    except (InputDomainError, ResourceBudgetError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def parse_json(text, error: type, what: str):
    """The JSON value of ``text``, or ``text`` itself when already parsed.
    Raises ``error`` naming the document ``what`` on invalid JSON text."""
    try:
        return json.loads(text) if isinstance(text, str) else text
    except json.JSONDecodeError as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc


def integer(value) -> int:
    """``int(value)`` of a JSON number, refusing the fractional floats that
    ``int`` truncates and the strings and booleans that it reads as
    numbers."""
    if isinstance(value, str):
        raise ValueError(f"invalid literal for int(): JSON string {value!r}")
    if isinstance(value, bool):
        raise TypeError(f"int() argument must be a number, not JSON {json.dumps(value)}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def real(value) -> float:
    """``float(value)`` of a JSON number, refusing the strings and booleans
    that ``float`` reads as numbers."""
    if isinstance(value, str):
        raise ValueError(f"could not convert string to float: JSON string {value!r}")
    if isinstance(value, bool):
        raise TypeError(f"float() argument must be a number, not JSON {json.dumps(value)}")
    return float(value)


def integer_argument(name: str, value) -> int:
    """``operator.index(value)``: an integer argument, refusing floats,
    strings and None with :class:`InputDomainError` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InputDomainError(f"{name} must be an integer, got {value!r}") from None


def real_array(x, what: str, form: str = "an array") -> np.ndarray:
    """``np.asarray(x, dtype=float)``; a complex ``x`` (the cast drops imaginary parts) or one
    that does not cast raises :class:`InputDomainError` naming ``what`` and its ``form``."""
    try:
        if not np.iscomplexobj(x):
            return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputDomainError(f"{what} must be {form} of real numbers: {exc}") from None
    raise InputDomainError(f"{what} entries must be real, got a complex value")
