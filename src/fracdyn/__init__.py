"""Fractional operators, power-law kernels, fractional field equations, and
long-range oscillator chains on periodic grids."""

from .errors import (BlowUpError, ConfigError, ConvergenceError, DomainError,
                     FracdynError, TailBoundError)
from .grids import GridSpec, TimeGrid
from .fracops import (caputo_left_l1, caputo_left_quadrature_oracle,
                      caputo_right_l1, l1_weights, mittag_leffler,
                      riemann_liouville_left, riesz_derivative_spectral,
                      riesz_quadrature_oracle)
from .kernels import (InteractionKernel, LatticeCoupling, MemoryKernel,
                      cutoff_for_tolerance, gamma_negative, lattice_symbol,
                      lattice_symbol_increment, memory_convolution,
                      renormalized_constant, zeta_sum)
from .fields import (FieldState, Interaction, ModelSpec, Potential,
                     StationaryResult, evolve_field, evolve_sine_gordon,
                     field_mass, free_energy, free_energy_gradient,
                     nls_evolve, nls_linear_mode_evolution, nls_step,
                     residual, sine_gordon_energy, stationary_fgle_solve,
                     stationary_residual)
from .chain import (ChainContinuumReport, ChainSpec, ChainState,
                    continuum_limit_compare, evolve_chain,
                    interaction_sum_direct, interaction_sum_fft)
from .analysis import (DispersionReport, LaplaceSymbolReport,
                       convergence_order, dispersion_check,
                       laplace_symbol_check, principal_iomega_power)

__version__ = "0.1.0"
