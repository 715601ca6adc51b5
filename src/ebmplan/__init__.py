"""Energy-based transition models, state-space planning, and online learning.

The package is organized bottom-up: ``nn`` (MLPs, backprop, Adam), ``energy``
(transition/trajectory scores and the contrastive objective), ``planner``
(smooth-noise MPPI over state trajectories), ``envs`` (particle, maze and
two-joint arm benchmarks, each with its own uniform ``random_action``),
``online`` (``run_online``, the interactive training loop of both model
kinds), ``baselines`` (action-conditioned forward model planned by the same
MPPI kernel), and ``experiments``/``cli`` (config-driven benchmark runs).
``experiments.MODEL_KINDS`` holds what every runner needs from each model
kind, and ``online_train`` runs either kind through ``run_online``. The
package binds no library name: import each from its module.
"""

__version__ = "0.1.0"
