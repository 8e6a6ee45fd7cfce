"""Exception types shared across the package, and the JSON field reader
that raises them."""


class ProjlabError(Exception):
    """Base class for all package-specific errors."""


class InputDomainError(ProjlabError, ValueError):
    """An argument is outside the documented domain of an operation."""


class SingularityError(ProjlabError, ValueError):
    """A matrix required to be invertible is (numerically) singular.

    Carries the offending smallest singular value in ``sigma``.
    """

    def __init__(self, message, sigma):
        super().__init__(f"{message} (sigma={sigma:.3e})")
        self.sigma = sigma


class DegeneracyError(ProjlabError, ValueError):
    """A geometric configuration is degenerate (dependent vectors, coincident
    points, collapsed spans).  Carries the conditioning value in ``sigma``."""

    def __init__(self, message, sigma):
        super().__init__(f"{message} (sigma={sigma:.3e})")
        self.sigma = sigma


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
    """An experiment configuration file is malformed; the message names the
    offending field."""


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
