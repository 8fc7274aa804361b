"""Regression Monte Carlo solver and verification lab for reflected backward
doubly stochastic differential equations (RBDSDEs) with non-Lipschitz
generators, and the associated obstacle-SPDE random field u(t, x).
"""

__version__ = "0.1.0"

from .paths import (TimeGrid, NoiseEnsemble, ProcessSample, build_grid,
                    sample_noise, empirical_norm)
from .modulus import (ModulusSpec, eval_modulus, verify_modulus_axioms,
                      condition_a_uniqueness_check, majorant_sequence,
                      horizon_partition, moment_bound_constant)
from .generators import (GeneratorSpec, ProblemSpec, builtin_problem,
                         lipschitz_envelope, envelope_property_check)
from .forward import ForwardEnsemble, simulate_forward, flow_continuity_test
from .solver import (RegressionBasis, RegressionPlan, SolverConfig, SolutionTriple,
                     solve_frozen_rbdsde, picard_solve, skorokhod_residual,
                     comparison_experiment)
from .field import (FieldSample, DossTransform, evaluate_u_field,
                    solve_doss_eta, monotone_field_sequence)

__all__ = [
    "__version__",
    "TimeGrid", "NoiseEnsemble", "ProcessSample", "build_grid", "sample_noise",
    "empirical_norm",
    "ModulusSpec", "eval_modulus", "verify_modulus_axioms",
    "condition_a_uniqueness_check", "majorant_sequence", "horizon_partition",
    "moment_bound_constant",
    "GeneratorSpec", "ProblemSpec", "builtin_problem", "lipschitz_envelope",
    "envelope_property_check",
    "ForwardEnsemble", "simulate_forward", "flow_continuity_test",
    "RegressionBasis", "RegressionPlan", "SolverConfig", "SolutionTriple",
    "solve_frozen_rbdsde", "picard_solve", "skorokhod_residual",
    "comparison_experiment",
    "FieldSample", "DossTransform", "evaluate_u_field", "solve_doss_eta",
    "monotone_field_sequence",
]
