"""Exception types shared across the library.

The CLI maps these onto its exit-code contract: ShapeError and
ContractError are invalid-input conditions (exit 3), and a
NumericHealthError is a numerical breakdown (exit 5), NonDiagonalizable
included: gksl's null-space projector raises it on a Jordan chain or a
failed null-space solve. require_finite is the gate of a computed number,
require_nonnegative and require_positive the two rules of a real scalar input.
"""


class ShapeError(ValueError):
    """Operands have incompatible or non-conforming dimensions."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class NumericHealthError(ArithmeticError):
    """A computed quantity violated a health gate (trace, positivity)."""


class NonDiagonalizable(NumericHealthError):
    """Matrix is defective within tolerance; spectral formulas unavailable."""


def require_finite(x: float, what: str) -> float:
    """x, refused with NumericHealthError unless finite: an output is finite or refused."""
    if not abs(x) < float("inf"):
        raise NumericHealthError(f"{what} is not finite ({x})")
    return x


def require_nonnegative(value, what: str) -> float:
    """value as a float, refused with ContractError unless finite and >= 0."""
    v = float(value)
    if not 0.0 <= v < float("inf"):
        raise ContractError(f"{what} must be finite and >= 0, got {v}")
    return v


def require_positive(value, what: str) -> float:
    """value as a float, refused with ContractError unless finite and > 0."""
    v = float(value)
    if not 0.0 < v < float("inf"):
        raise ContractError(f"{what} must be finite and > 0, got {v}")
    return v
