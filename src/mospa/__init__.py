"""Label-free multi-target state estimation toolkit.

Stacked states, permutation-invariant squared distances (assignment based),
Monte Carlo MOSPA and MMOSPA estimation, exact discrete optimal transport,
and additively weighted Voronoi geometry, plus a scenario-driven CLI.
"""

from .assignment import (
    brute_force_assignment,
    optimal_permutation,
    solve_assignment,
)
from .errors import CapacityError, DegenerateEstimateWarning, UnsupportedMetricError
from .estimation import (
    MmospaConfig,
    MmospaResult,
    MospaEstimate,
    RestartOutcome,
    mmospa_estimate,
    mospa_mc,
    scalar_sort_oracle,
)
from .geometry import (
    Hyperplane,
    WeightedSites,
    bisector,
    cells_match_regions,
    export_diagram_2d,
    power_cell_index,
)
from .measures import (
    DiscreteMeasure,
    EmpiricalMeasure,
    GaussianMixture,
    build_region_measure,
    estimate_region_masses,
    gm_pdf,
    gm_sample,
)
from .metrics import RegionLabel, gospa, ospa, region_index
from .scenarios import Scenario, ScenarioParseError, parse_scenario, scenario_digest
from .states import (
    MAX_TARGETS,
    Permutation,
    StackedState,
    permutation_apply,
    permutation_enumerate,
    permuted_atoms,
)
from .transport import (
    IdentityReport,
    TransportPlan,
    TransportSolution,
    coupling_cost,
    solve_transport,
    verify_mospa_wasserstein,
    w2_squared,
)

__all__ = [
    "MAX_TARGETS",
    "CapacityError",
    "DegenerateEstimateWarning",
    "DiscreteMeasure",
    "EmpiricalMeasure",
    "GaussianMixture",
    "Hyperplane",
    "IdentityReport",
    "MmospaConfig",
    "MmospaResult",
    "MospaEstimate",
    "Permutation",
    "RegionLabel",
    "RestartOutcome",
    "Scenario",
    "ScenarioParseError",
    "StackedState",
    "TransportPlan",
    "TransportSolution",
    "UnsupportedMetricError",
    "WeightedSites",
    "bisector",
    "brute_force_assignment",
    "build_region_measure",
    "cells_match_regions",
    "coupling_cost",
    "estimate_region_masses",
    "export_diagram_2d",
    "gm_pdf",
    "gm_sample",
    "gospa",
    "mmospa_estimate",
    "mospa_mc",
    "optimal_permutation",
    "ospa",
    "parse_scenario",
    "permutation_apply",
    "permutation_enumerate",
    "permuted_atoms",
    "power_cell_index",
    "region_index",
    "scalar_sort_oracle",
    "scenario_digest",
    "solve_assignment",
    "solve_transport",
    "verify_mospa_wasserstein",
    "w2_squared",
]
