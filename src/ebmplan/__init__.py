"""Energy-based transition models, state-space planning, and online learning.

The package is organized bottom-up: ``nn`` (MLPs, backprop, Adam), ``energy``
(transition/trajectory scores and the contrastive objective), ``planner``
(smooth-noise MPPI over state trajectories), ``envs`` (particle, maze and
two-joint arm benchmarks, each with its own uniform ``random_action``),
``online`` (``run_online``, the interactive training loop of both model
kinds), ``baselines`` (action-conditioned forward model planned by the same
MPPI kernel), and
``experiments``/``cli`` (config-driven benchmark runs). ``experiments.MODEL_KINDS``
holds what every runner needs from each model kind, and ``online_train`` runs
either kind through ``run_online``.
"""

from .baselines import (
    ActionFFModel,
    ff_plan,
    ff_predict,
    ff_train_step,
    make_action_ff,
)
from .energy import (
    EnergyModel,
    collate,
    contrastive_loss_and_grads,
    contrastive_train_step,
    make_energy_model,
    pack_pairs,
    sample_negative_pairs,
)
from .envs import (
    EnvSpec,
    MazeLayout,
    default_maze_layout,
    make_env,
    maze_env,
    particle_env,
    reacher_env,
)
from .experiments import (
    MODEL_KINDS,
    ExperimentConfig,
    energy_heatmap,
    evaluate_model,
    gen_random_dataset,
    online_train,
    pretrain,
    run_diversity,
    run_experiment,
    run_explore,
)
from .nn import (
    AdamState,
    MlpParams,
    adam_step,
    load_mlp,
    mlp_forward,
    mlp_init,
    save_mlp,
)
from .online import (
    OnlineConfig,
    OnlineResult,
    ReplayBuffer,
    execute_plan,
    run_online,
)
from .planner import (
    PlannerConfig,
    SmoothNoiseGen,
    finite_difference_matrix,
    mppi_weights,
    plan,
)

__version__ = "0.1.0"
