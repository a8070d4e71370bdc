"""celab: correlated-equilibrium tooling over distribution states.

Core pieces: normal-form games with normalized joint-outcome payoffs, exact
NE/CE computation through a deterministic dense simplex, a simplex-walk
environment with self-play policy training, and LP-based estimation of an
opponent's payoff vector from an observed stable joint distribution.
"""

from .games import (
    Game,
    RenormalizedPayoffWarning,
    game_from_dict,
    game_to_dict,
    load_game,
    make_game,
    save_game,
    validate_game,
)
from .errors import InvalidGameError, NumericError, PreconditionError, SolverError
from .lp import LinearProgram, LPSolution, solve_lp
from .equilibrium import (
    CECheck,
    CESolution,
    NashEquilibrium,
    correlated_equilibrium_program,
    enumerate_equilibria,
    enumerate_pure_nash,
    in_nash_payoff_hull,
    is_correlated_equilibrium,
    max_welfare_correlated_equilibrium,
    mixed_nash_2x2,
)
from .env import (
    EpisodeBatch,
    apply_action,
    average_states,
    default_state,
    enumerate_actions,
    min_steps,
    rollout,
)
from .policy import (
    PolicyParams,
    RolloutRecord,
    Workspace,
    forward,
    gradients,
    init_policy,
    load_checkpoint,
    loss_value,
    policy_fn,
    save_checkpoint,
)
from .training import (
    AdamState,
    EpochStats,
    RewardTensor,
    TrainingConfig,
    TrainResult,
    adam_step,
    shape_rewards,
    train_pair,
    update_policy,
    write_history_csv,
)
from .estimation import (
    EstimationResult,
    PressureConstraint,
    build_pressure_constraints,
    constraint_slacks,
    estimate_payoff,
    estimation_report,
    reorder,
)
from .pipeline import (
    InteractionTask,
    PipelineResult,
    against_set,
    build_task_set,
    pair_view,
    run_pipeline,
    slice_indices,
    validate_manifest,
)

__version__ = "0.1.0"
