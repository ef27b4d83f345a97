"""Thermodynamics of reversible computing on finite-dimensional systems.

Modules, roughly bottom-up:

- qlinalg: Hilbert-Schmidt linear algebra and column-stacking vectorization
- qstate: density matrices, Gibbs states, entropies, free energies
- compmodel: basis partitions and the computational/noncomputational split
- compops: classical stochastic operations and reversibility criteria
- channels: dilations, Kraus extraction, reset protocols, heat bookkeeping
- resource: thermomajorization and free-energy feasibility checks
- gksl: Lindblad generators, their spectra, and asymptotic projections
- adiabatic: dissipation model for adiabatically switched logic
- cli: the `revtherm` scenario runner

Importing the package loads only `errors`. Each module above is imported
the first time its name is read (`revtherm.gksl`, `from revtherm import
gksl`), so a `revtherm <task>` process loads only the modules its task
runs.

Entropic quantities are in nats with Boltzmann's constant set to one.
"""

import importlib

from .errors import ContractError, NonDiagonalizable, NumericHealthError, ShapeError

__version__ = "0.1.0"

_SUBMODULES = (
    "adiabatic",
    "channels",
    "compmodel",
    "compops",
    "gksl",
    "qlinalg",
    "qstate",
    "resource",
)

__all__ = [
    *_SUBMODULES,
    "ContractError",
    "NonDiagonalizable",
    "NumericHealthError",
    "ShapeError",
    "__version__",
]


def __getattr__(name):
    # importing a submodule binds it on the package, so this runs once per name
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULES))
