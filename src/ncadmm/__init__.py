"""Decentralized consensus-ADMM simulation with additive computation error.

The package simulates the per-node protocol over connected graphs, injects
seedable error models into the exchanged messages, and certifies linear
convergence (contraction factor, admissibility conditions, steady-state
error bounds) against the measured trajectories.
"""

from .admm import (ANALYSIS_FAITHFUL, BROADCAST, ReferencePoint, Trajectory,
                   reference_point, run_decentralized, run_matrix_form,
                   x_err_series)
from .analysis import (ContractionAudit, SteadyStateResult, TheoryReport,
                       audit_contraction, edc_metric, gnorm_series,
                       optimize_delta, steady_state_check, theory_constants)
from .config import (ConfigError, ExperimentConfig, default_config,
                     full_config, load_config)
from .experiment import SweepResult, emit_csv, emit_svg, run_experiment
from .noise import NoiseModel, RandomStream
from .objective import ObjectiveSet, make_problem
from .topology import (ArcMatrices, Graph, GraphConnectivityError,
                       SpectralSummary, build_arc_matrices,
                       gen_connected_graph, read_edge_list, spectral_summary,
                       write_edge_list)

__version__ = "0.1.0"
