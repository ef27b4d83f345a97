"""Exception types shared across the library.

The CLI maps these onto its exit-code contract: ShapeError and
ContractError are invalid-input conditions (exit 3), NumericHealthError
is a numerical breakdown (exit 5), and so is a NonDiagonalizable that no
caller handled. NonDiagonalizable is raised by gksl's null-space
projector, when an asymptotic eigenvalue carries a Jordan chain or its
null-space solve fails.
"""


class ShapeError(ValueError):
    """Operands have incompatible or non-conforming dimensions."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class NonDiagonalizable(ArithmeticError):
    """Matrix is defective within tolerance; spectral formulas unavailable."""


class NumericHealthError(ArithmeticError):
    """A computed quantity violated a health gate (trace, positivity)."""
