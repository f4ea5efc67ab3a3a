"""Numerical workbench for first-order-coupled elliptic systems on a rectangle.

Solid Cauchy transforms and their Vekua-type inverses, oscillating
solutions with holomorphic phases, a gauge non-uniqueness family with its
coefficient relations, Carleman-weight ratio probes, and a direct forward
solver producing partial boundary data.
"""

import os

# one BLAS thread unless the caller set a count, if numpy is not loaded yet:
# SuperLU's BLAS sums in an order, so to last bits, that follows the count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .errors import (LabError, GridError, ConvergenceError, SingularSystemError,
                     OverflowGuardError, ConfigError)
from .grid import (Grid2D, BoundaryPartition, CutoffFunction, remark_partition,
                   bump_cutoff, plateau_cutoff, GAMMA_TILDE, GAMMA_0)
from .fields import VectorField, MatrixField
from .calculus import trace_boundary, normal_derivative
from .synthetic import TrigSpec, random_trig_spec, random_coefficient_specs
from .weights import (HolomorphicWeight, CriticalPoint, weight_catalog,
                      find_critical_points,
                      oscillatory_integral, stationary_phase_leading,
                      resolution_nodes_per_period)
from .transforms import (TransformPlan, dzbar_inv, dz_inv, VekuaOperator,
                         make_vekua_operator, neumann_series_apply,
                         vekua_solve, r_tau, r_tau_b)
from .forward import (CoefficientTriple, OperatorFactorization,
                      fourier_profiles, PartialCauchyData, cauchy_data,
                      cauchy_distance)
from .harness import (GaugeSpec, gauge_transform, RelationResidual,
                      check_relations, coefficient_gap,
                      gauge_equivalence_experiment, off_gauge_separation,
                      random_h01_spec, carleman_probe, full_operator_setup)
from .cgo import (CgoAmplitude, CgoSolution, holomorphic_seed, build_amplitude,
                  build_cgo_solution, cgo_residual, zero_order_remainder,
                  factorization_check)
from .cli import ScenarioConfig, fit_power_law, run, main

__version__ = "0.1.0"
