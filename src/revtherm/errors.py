"""Exception types shared across the library.

The CLI maps these onto its exit-code contract: ShapeError and
ContractError are invalid-input conditions (exit 3), NumericHealthError
is a numerical breakdown (exit 5), and so is a NonDiagonalizable that no
caller handled. Raised by eig_general, NonDiagonalizable carries the
eigenvalues and right eigenvectors it already computed, so a caller that
falls back to a method needing no full eigenbasis reuses them.
"""


class ShapeError(ValueError):
    """Operands have incompatible or non-conforming dimensions."""


class ContractError(ValueError):
    """An input violates a documented precondition."""


class NonDiagonalizable(ArithmeticError):
    """Matrix is defective within tolerance; spectral formulas unavailable.

    evals and right are the eigenvalues and right eigenvectors computed
    before the verdict, or None where none were.
    """

    def __init__(self, message: str, evals=None, right=None):
        super().__init__(message)
        self.evals = evals
        self.right = right


class NumericHealthError(ArithmeticError):
    """A computed quantity violated a health gate (trace, positivity)."""
