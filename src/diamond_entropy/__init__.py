"""Entanglement entropy of the damped Dirac vacuum restricted to an interval.

Numerical-spectral library: momentum symbols, position-space kernels,
quadrature rules, Nystrom discretization, the Schatten-norm property suite,
the entropy pipeline, and damping-scale sweeps that verify the
logarithmically enhanced area law with slope (1/6)(kappa+1)/kappa.
"""

__version__ = "0.1.0"

from .asymptotics import (
    DiagnosticsResult,
    SweepResult,
    log_growth_diagnostic,
    matched_grid_entropy,
    offdiagonal_diagnostic,
    sweep,
)
from .dirac_symbols import (
    PhysicalParams,
    hamiltonian_symbol,
    limit_symbol,
    omega,
    rescaled_symbol,
    spectral_projection,
)
from .discretization import (
    clear_spectrum_cache,
    operator_eigenvalues,
)
from .entropy_pipeline import (
    ClampReport,
    EntropyResult,
    entanglement_entropy,
    entropy_from_eigenvalues,
    entropy_integral,
    subtraction_trace,
)
from .errors import (
    ConvergenceError,
    DiamondEntropyError,
)
from .kernel_eval import kernel_blocks
from .quadrature import (
    Grid,
    GridRule,
    build_grid,
)
from .renyi_functions import (
    RenyiOrder,
    eta,
    theoretical_slope,
)
from .schatten_toolkit import (
    SchattenReport,
    verify_commutator_lemma,
    verify_inequalities,
)
