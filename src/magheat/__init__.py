"""magheat: numerical laboratory for the large-time decay of the planar
magnetic heat semigroup.

The package verifies, at desk scale, that a compactly supported magnetic
field improves the polynomial decay rate of the heat semigroup from 1/2 to
(1 + beta)/2, with beta the distance of the total flux to the integers: it
builds transverse-gauge potentials, discretizes the associated operators,
tracks the lowest eigenvalue of the self-similar family against the exactly
solvable flux-line oracle, and measures decay rates of evolved solutions.
"""

__version__ = "0.1.0"

from .field import MagneticField, beta_of, make_field, total_flux, vector_potential
from .discretize import (DiscreteOperator, Grid2D, LinkPhases, RadialOperator,
                         assemble_magnetic, assemble_radial,
                         assemble_radial_channel, build_grid, peierls_phases)
from .exact import ABSpectrum, ab_spectrum, free_gaussian_norm, laguerre
from .spectral import (HardyEstimate, SpectralSample, hardy_constant, lambda_curve,
                       lambda_limit_estimate, smallest_eigs)
from .evolve import (NormTrajectory, StateVector, evolve_physical, evolve_selfsimilar,
                     gaussian_state, weighted_norm)
from .decay import (DecayFit, ReportConfig, fit_exponential_rate,
                    fit_polynomial_rate, theorem_report)
from .harness import (ExperimentConfig, RunRecord, compare, preset_suite, run,
                      run_suite)
