"""Sampling-based trajectory inference over state sequences (MPPI).

The planner keeps a candidate trajectory, repeatedly perturbs it with
temporally smooth Gaussian noise, scores every perturbed sample, and replaces
the candidate with the weight-averaged sample, where weights are the
exponentiated negative scores. Index 0 is clamped to the start state
throughout, so the result is always conditioned on where the agent actually
is. The perturb-and-reweight loop is ``mppi_refine``, which the action-space
planner of ``baselines`` runs as well.

Smoothness comes from drawing noise with covariance ``scale^2 * (A^T A)^-1``
for the second-order finite-difference matrix ``A`` whose final two rows are
removed, which leaves the end of the horizon unconstrained: noise variance
grows toward the end of the trajectory, so plans explore widely where they
are least committed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .energy import EnergyModel, goal_scores, reward_scores, softmin_weights, trajectory_energies
from .envs import EnvSpec
from .nn import SCORING_DTYPE

SCORE_MODES = ("gaussian-goal", "reward", "prior-only")
# the factor the noise scale shrinks by each MPPI iteration
NOISE_DECAY = 0.92


@dataclass(frozen=True)
class PlannerConfig:
    """MPPI hyperparameters.

    ``noise_scale`` multiplies the smooth-noise covariance directly and is
    decayed geometrically by ``NOISE_DECAY`` each iteration, which anneals the
    candidate from coarse exploration to fine convergence.
    """

    num_samples: int = 200
    num_iterations: int = 20
    horizon: int = 20
    noise_scale: float = 0.02
    goal_weight: float = 1.0
    score_mode: str = "gaussian-goal"
    temperature: float = 1.0

    def __post_init__(self) -> None:
        if self.num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if self.num_iterations < 0:
            raise ValueError("num_iterations must be >= 0")
        if self.horizon < 2:
            raise ValueError("horizon must be >= 2")
        if not self.noise_scale > 0:
            raise ValueError("noise_scale must be positive")
        if self.goal_weight < 0:
            raise ValueError("goal_weight must be non-negative")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be one of {SCORE_MODES}")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")


def finite_difference_matrix(horizon: int) -> np.ndarray:
    """Second-order finite-difference (acceleration) matrix over the horizon.

    Rows slide the stencil (1, -2, 1) along the diagonal; the first two rows
    pin the start of the trajectory and the two rows that would pin the end
    are dropped. The result is unit-diagonal lower-triangular, so ``A^T A``
    is symmetric positive definite.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    a = np.zeros((horizon, horizon))
    a[0, 0] = 1.0
    a[1, 0] = -2.0
    a[1, 1] = 1.0
    for i in range(2, horizon):
        a[i, i - 2 : i + 1] = (1.0, -2.0, 1.0)
    return a


class SmoothNoiseGen:
    """Draws zero-mean noise with covariance ``scale^2 * (A^T A)^-1`` per column.

    ``A`` is unit-lower-triangular with a fixed three-term stencil, so
    solving ``A y = z`` is the forward recurrence
    ``y_t = z_t + 2 y_{t-1} - y_{t-2}`` (a discrete double integration of
    white noise), vectorized over all columns at once. At T = 1 the draw is
    plain Gaussian noise; ``covariance`` needs T >= 2.
    """

    def __init__(self, horizon: int, state_dim: int):
        if horizon < 1 or state_dim < 1:
            raise ValueError("horizon and state_dim must be >= 1")
        self.horizon = horizon
        self.state_dim = state_dim

    def covariance(self) -> np.ndarray:
        inv = np.linalg.solve(finite_difference_matrix(self.horizon), np.eye(self.horizon))
        return inv @ inv.T

    def sample(
        self, scale: float | np.ndarray, rng: np.random.Generator, n: int | None = None
    ) -> np.ndarray:
        """One (T, d) perturbation, or a (n, T, d) batch when ``n`` is given.

        ``scale`` may also be a 1-D array of K scales; the result then gains a
        leading axis, (K, T, d) or (K, n, T, d). All K draws come from one
        ``standard_normal`` call, so they equal, bit for bit, K calls with the
        scalar scales in order, and leave ``rng`` in the same state.
        """
        scales = np.asarray(scale, dtype=float)
        if scales.ndim > 1:
            raise ValueError("scale must be a scalar or a 1-D array")
        if (scales < 0).any():
            raise ValueError("scale must be non-negative")
        count = 1 if n is None else n
        k = scales.size
        z = rng.standard_normal((k, self.horizon, count * self.state_dim))
        z *= scales.reshape(k, 1, 1)
        y = np.empty_like(z)
        y[:, 0] = z[:, 0]
        if self.horizon > 1:
            y[:, 1] = z[:, 1] + 2.0 * y[:, 0]
        for t in range(2, self.horizon):
            y[:, t] = z[:, t] + 2.0 * y[:, t - 1] - y[:, t - 2]
        out = y.reshape(k, self.horizon, count, self.state_dim).transpose(0, 2, 1, 3)
        if n is None:
            out = out[:, 0]
        return out[0] if scales.ndim == 0 else out


def mppi_weights(scores: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Normalized exponentiated negative scores (stabilized by the minimum)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size == 0:
        raise ValueError("scores must be a non-empty 1-D array")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    return softmin_weights(scores, temperature)


def mppi_refine(
    candidate: np.ndarray,
    project: Callable[[np.ndarray], np.ndarray],
    score: Callable[[np.ndarray], np.ndarray],
    config: PlannerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Refine a (T, d) candidate by perturb-and-reweight; shared by both planners.

    Each of ``config.num_iterations`` iterations perturbs the candidate with
    ``num_samples`` smooth noise draws, maps the perturbed candidates through
    ``project`` (which may modify its (n, T, d) argument in place), scores
    them with ``score`` (lower is better), and replaces the candidate by the
    MPPI-weighted average. Samples with non-finite scores get weight zero; if
    every score is non-finite the kernel raises. The noise scale decays by
    ``NOISE_DECAY`` per iteration.

    The noise of every iteration is drawn up front in one call, which gives
    the same numbers and the same final ``rng`` state as one draw per
    iteration only because ``project`` and ``score`` never draw from ``rng``;
    a callback that did would see, and leave, a different stream.
    """
    horizon, dim = candidate.shape
    # the same repeated product as decaying inside the loop; decay ** k rounds differently
    scales = np.empty(config.num_iterations)
    scale = config.noise_scale
    for k in range(config.num_iterations):
        scales[k] = scale
        scale *= NOISE_DECAY
    noises = SmoothNoiseGen(horizon, dim).sample(scales, rng, n=config.num_samples)
    for noise in noises:
        samples = project(candidate[None] + noise)
        scores = score(samples)
        finite = np.isfinite(scores)
        if not finite.any():
            raise ValueError("all sampled candidates scored non-finite")
        weights = np.zeros(len(scores))
        weights[finite] = mppi_weights(scores[finite], config.temperature)
        candidate = np.einsum("n,ntd->td", weights, samples)
    return candidate


def plan_target(spec: EnvSpec, goal: np.ndarray | None, config: PlannerConfig):
    """What ``plan`` scores against: the goal, ``spec.reward`` bound to it, or nothing."""
    if config.score_mode == "reward":
        return lambda states: spec.reward(states, goal)
    if config.score_mode == "prior-only":
        return None
    return goal


def _scorer(
    model: EnergyModel,
    target: np.ndarray | Callable[[np.ndarray], np.ndarray] | None,
    config: PlannerConfig,
) -> Callable[[np.ndarray], np.ndarray]:
    # checks ``target`` against the score mode once; the scorer maps (n, T, d) -> (n,)
    if config.score_mode == "reward":
        if not callable(target):
            raise ValueError("reward score_mode needs a callable target")
        return lambda samples: reward_scores(model, samples, target)
    if config.score_mode == "prior-only":
        return lambda samples: trajectory_energies(model, samples)
    goal = np.asarray(target, dtype=float)
    if goal.shape != (model.state_dim,):
        raise ValueError(f"goal shape {goal.shape} != ({model.state_dim},)")
    return lambda samples: goal_scores(model, samples, goal, config.goal_weight)


def plan(
    model: EnergyModel,
    s_start: np.ndarray,
    target: np.ndarray | Callable[[np.ndarray], np.ndarray] | None,
    config: PlannerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Infer a (horizon, state_dim) trajectory starting at ``s_start``.

    The candidate starts as the constant trajectory at the start state. Each
    iteration draws ``num_samples`` smooth perturbations of the candidate,
    re-clamps their first state, scores them against ``target`` by
    ``score_mode`` (``plan_target`` builds the target: a goal vector, a reward
    function, or None), and averages them under the MPPI weights. Samples with
    non-finite scores get weight zero; if every score is non-finite the
    planner raises.

    Samples are scored by a ``SCORING_DTYPE`` copy of the net, made once per
    call; the caller's model is left untouched, and scores and weights stay
    float64.
    Deterministic given the model, inputs and generator state.
    """
    s_start = np.asarray(s_start, dtype=float)
    if s_start.shape != (model.state_dim,):
        raise ValueError(f"start shape {s_start.shape} != ({model.state_dim},)")
    score = _scorer(EnergyModel(model.net.astype(SCORING_DTYPE)), target, config)

    def clamp_start(samples: np.ndarray) -> np.ndarray:
        samples[:, 0, :] = s_start
        return samples

    candidate = mppi_refine(
        np.tile(s_start, (config.horizon, 1)),
        clamp_start,
        score,
        config,
        rng,
    )
    # the refined row 0 is a weighted mean of clamped rows; pin it exactly
    candidate[0] = s_start
    return candidate
