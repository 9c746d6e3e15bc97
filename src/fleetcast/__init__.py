"""Probabilistic daily-demand forecasting feeding stochastic fleet relocation.

Pipeline: trip ingestion -> per-zone demand series -> recurrent mixture
density forecaster (or point baseline) -> Monte Carlo scenarios -> two
stage relocation program (exact greedy solver, batched over evaluation
days, certified by a dual check) -> rolling evaluation.
"""

__version__ = "0.1.0"

from .data import (
    DemandSeries,
    Standardizer,
    TripTable,
    WindowSet,
    ZoneBox,
    ZoneMap,
    aggregate_demand,
    chronological_split,
    ingest_trips,
    make_windows,
)
from .em import EmState, e_step, em_fit, em_fit_restarts, log_likelihood, m_step
from .evaluate import (
    ComparisonReport,
    EvaluationReport,
    rolling_evaluate,
)
from .mdn import SIGMA_FLOOR, MixtureBatch, gmm_nll, mdn_transform
from .recurrent import (
    CellWeights,
    HeadSpec,
    RecurrentModel,
    TrainConfig,
    gru_cell_forward,
    init_model,
    load_model,
    lstm_cell_forward,
    save_model,
    train,
)
from .relocation import (
    PlanDecision,
    RelocationInstance,
    RelocationSolveError,
    ScenarioSet,
    build_two_stage,
    deterministic_model,
    evaluate_decision,
    expected_objective,
    sample_scenarios,
    solve_relocation,
    solve_relocation_days,
    structural_certificate,
)
from .simplex import LinearProgram, SolveResult, certify, solve_lp
