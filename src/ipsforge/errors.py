"""Exception types shared across the workbench."""


class IpsforgeError(Exception):
    """Base class for all workbench errors."""


class LevelMismatch(IpsforgeError):
    """Field elements from different fields mixed without an embedding."""


class ZeroInverse(IpsforgeError):
    """Inverse of the zero field element requested."""


class DegenerateTower(IpsforgeError):
    """Tower whose extension level coincides with the base."""


class ArityMismatch(IpsforgeError):
    """Polynomials with different variable counts or fields combined."""


class ZeroPolynomial(IpsforgeError):
    """Operation undefined on the zero polynomial."""


class OutOfRange(IpsforgeError):
    """Index or degree parameter outside its documented range."""


class FieldTooSmall(IpsforgeError):
    """Construction needs more distinct field elements than the field has."""


class NotSymmetric(IpsforgeError):
    """Two cube points of equal Hamming weight evaluate differently."""


class BetaInSubfield(IpsforgeError):
    """Shifted-instance constant lies in the base field, so the Frobenius
    denominator vanishes."""


class NotLinear(IpsforgeError):
    """Constructor requires a degree-1 instance."""


class SatisfiableInstance(IpsforgeError):
    """Instance has a Boolean solution; no refutation exists."""


class SatisfiableSystem(IpsforgeError):
    """System has a common Boolean solution; no refutation exists."""


class ZeroDenominator(IpsforgeError):
    """A cube point makes the inverted linear form vanish."""


class BudgetExceeded(IpsforgeError):
    """Requested size is beyond the configured enumeration budget."""


class FieldMismatch(IpsforgeError):
    """Certificate and instance declare different fields."""


class ParseError(IpsforgeError):
    """Malformed polynomial, field-spec, certificate or instance text. The
    message ends with the position only when the raiser gives a column."""

    def __init__(self, message: str, line: int = 1, column: int | None = None):
        if column is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
