"""Simulation and optimization toolkit for cascading failures in
interdependent load-carrying networks.

Networks exchange the load of failed nodes through a row-stochastic
coupling matrix. The package iterates the deterministic mean-field
recursion, runs node-level Monte-Carlo cascades (global or
topology-local redistribution), chooses coupling coefficients with
fixed (FCC), size-based dynamic (SBD) or step-wise optimizing (SWO)
strategies, and measures robustness via the critical attack size.
"""

from .core import (AttackSpec, BarabasiAlbert, Complete, CouplingError,
                   CouplingMatrix, EdgeListTopology, ErdosRenyi,
                   NetworkConfig, Topology, validate_coupling)
from .distributions import (DistributionError, DistributionSpec, Point,
                            ShiftedExponential, Uniform, dist_mean,
                            dist_sf_geq)
from .meanfield import (MeanFieldState, Outcome, RunResult, mf_run,
                        rkg_identical_step, rkg_run, trajectory_to_csv)
from .montecarlo import (Graph, NodePopulation, apply_attack, generate_graph,
                         mc_run, mc_step_complete, mc_step_local,
                         read_edge_list, sample_population)
from .search import (CriticalResult, GraphCache, HeatmapResult, SweepResult,
                     attack_sweep, compare_strategies, critical_attack_size,
                     fcc_grid_sweep, heatmap_to_csv,
                     make_meanfield_runner, make_montecarlo_runner,
                     meanfield_sweep, sweep_to_csv)
from .strategies import (FCC, SBD, SWO, CouplingDecision, CouplingStrategy,
                         NetView, decide, swo_objective)

__all__ = [name for name in dir() if not name.startswith("_")]
