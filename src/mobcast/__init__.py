"""Seeded simulator for symbol-driven mobilization campaigns.

The package models how a designed campaign artifact (format, emotional
hook, symbols, toxicity) spreads over a homophilous block network:
affect responses, threshold cascades with peer reinforcement, aggregate
impact scoring, constrained design search, a two-side adoption game,
panel estimators, and a falsification suite with calibrated nulls.
"""

from .affect import (FORMATS, PARTICIPATORY_FORMATS, SEEDING_STRATEGIES,
                     AffectParams, Design, DesignError, MeasurementParams,
                     affect_vector, matching_vector, measure_items)
from .design import (EvalRow, OptimizeInfeasibleError, OptimizeReport,
                     design_cost, enumerate_designs, evaluate_design,
                     optimize, replicate_design, scenario_graph)
from .diffusion import (CascadeEngine, CascadeResult, DecisionParams,
                        TransmissionParams, seed_count, seed_exposure)
from .estimate import (EstimateError, FitResult, PanelData, build_panel,
                       factor_scores, fit_activation, fit_affect_ols,
                       fit_edge_transmission, fit_logistic, read_panel_csv,
                       wald_p_value, write_panel_csv)
from .falsify import (HYPOTHESES, CalibrationReport, HypothesisSpec,
                      TestReport, calibrate, calibration_scenario, run_test)
from .game import (EquilibriumReport, JointCascadeResult, PlayerConfig,
                   best_response_dynamics, payoff, payoff_matrices,
                   players_from_scenario)
from .graph import (CONTEXT_PRESETS, GraphConfig, GraphError, SocialGraph,
                    block_centers, generate_network, homophily_index,
                    identity_similarity, load_edge_list, modularity,
                    save_edge_list, structure_summary)
from .impact import ImpactReport, ImpactWeights, score_cascade
from .scenario import (PRESET_NAMES, CostModel, DesignSpace, GameConfig,
                       Scenario, ScenarioError, ama_default, derive_stream,
                       load_scenario, preset_scenario, save_scenario,
                       scenario_hash)

__version__ = "0.1.0"

__all__ = [
    "AffectParams", "CONTEXT_PRESETS", "CalibrationReport", "CascadeEngine",
    "CascadeResult", "CostModel", "DecisionParams", "Design", "DesignError",
    "DesignSpace", "EquilibriumReport", "EstimateError", "EvalRow",
    "FORMATS", "FitResult", "GameConfig", "GraphConfig", "GraphError",
    "HYPOTHESES", "HypothesisSpec", "ImpactReport", "ImpactWeights",
    "JointCascadeResult", "MeasurementParams", "OptimizeInfeasibleError",
    "OptimizeReport", "PARTICIPATORY_FORMATS", "PRESET_NAMES", "PanelData",
    "PlayerConfig", "Scenario", "ScenarioError", "SEEDING_STRATEGIES",
    "SocialGraph", "TestReport", "TransmissionParams", "affect_vector",
    "ama_default", "best_response_dynamics", "block_centers", "build_panel",
    "calibrate", "calibration_scenario", "derive_stream", "design_cost",
    "enumerate_designs", "evaluate_design", "factor_scores",
    "fit_activation", "fit_affect_ols", "fit_edge_transmission",
    "fit_logistic", "generate_network", "homophily_index",
    "identity_similarity", "load_edge_list",
    "load_scenario", "matching_vector", "measure_items", "modularity",
    "optimize", "payoff", "payoff_matrices", "players_from_scenario",
    "preset_scenario", "read_panel_csv", "replicate_design",
    "run_test", "save_edge_list", "save_scenario", "scenario_graph",
    "scenario_hash", "score_cascade", "seed_count", "seed_exposure",
    "structure_summary", "wald_p_value",
    "write_panel_csv", "__version__",
]
