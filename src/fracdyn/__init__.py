"""Fractional operators, fractional field equations, and long-range
oscillator chains on periodic grids."""

from .errors import (BlowUpError, ConfigError, ConvergenceError, DomainError,
                     FracdynError)
from .grids import GridSpec, TimeGrid
from .fracops import (caputo_left_l1, l1_weights, mittag_leffler,
                      riesz_derivative_spectral)
from .kernels import renormalized_constant
from .fields import (FieldState, Interaction, ModelSpec, Potential,
                     StationaryResult, evolve_field, field_mass, free_energy,
                     nls_evolve, nls_linear_mode_evolution, residual,
                     sine_gordon_energy, stationary_fgle_solve,
                     stationary_residual)
from .chain import (ChainContinuumReport, ChainSpec, continuum_limit_compare,
                    evolve_chain)
from .analysis import DispersionReport, dispersion_check

__version__ = "0.1.0"
