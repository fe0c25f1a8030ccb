"""Causal fermion systems from Dirac sea ensembles, with gauge fixing.

Builds finite-dimensional causal fermion systems from plane-wave Dirac
ensembles in a periodic spatial box and provides the numerical machinery
around them: Krein-space linear algebra and polar decompositions, charts on
the manifold of fixed-signature operators with its Hilbert-Schmidt metric,
symmetric and transported wave charts with their coincidence check, closed
forms for the massless closed chain, and verification that the distinguished
gauge cancels local phase transformations.
"""

from .correlation import (ImageSplit, as_split, closed_chain, complement_basis,
                          hermitize, kernel, local_correlation, spin_space,
                          split_by_image, wave_evaluation)
from .closed_chain import (DualRouteResult, ExpansionReport, VectorKernel,
                           chain_eigenvalues, chain_from_vectors,
                           closed_form_inv_sqrt_kernel, dual_route_inv_sqrt,
                           spectral_inv_sqrt_kernel, spectral_projectors,
                           unitary_expansion, vector_kernel_from_matrix)
from .dirac_box import (DiracBoxConfig, MomentumMode, SpacetimePoint,
                        build_correlation_map, kernel_braket_sum,
                        kernel_mode_sum, mixed_kernel, mode_count,
                        momentum_modes, momentum_points, slash,
                        wave_value_matrix)
from .errors import (BranchCut, CfsGaugeError, ConfigError, DegenerateChain,
                     EmptyCutoff, InvalidSignature, NotDiagonalKernel,
                     NotInvertible, NotRegular, NotSymmetric,
                     OutOfChartDomain, OutOfConvergenceRadius, SignatureLost,
                     SingularGram, TaskError, TooFarFromBase, TooFewModes,
                     TooManyModes)
from .krein import (KreinSpace, SqrtResult, binomial_sqrt_series, opnorm,
                    polar, polar_decompose, sqrt_near_identity)
from .manifold import (ChartCoordinates, GaussianReport, chart_forward,
                       chart_inverse, chart_jacobian_rank, chart_metric,
                       gaussian_check, manifold_dim)
from .perturbation import (BasisWaves, GaugeFunction, apply_local_phase,
                           basis_waves, gauged_basis, kernel_time_coefficient,
                           perturbed_symmetric_gauge)
from .wave_charts import (CoincidenceReport, GaugeMap, WaveChartPoint,
                          build_gauge, charts_coincide_check,
                          condition_residual_bound, connecting_unitary,
                          gauge_orbit_witness, gaussian_wave_map, realize,
                          symmetric_wave_chart, symmetrize)

__version__ = "0.1.0"
