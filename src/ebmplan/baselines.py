"""Comparison agent: an action-conditioned forward model planned over action
sequences.

The forward model predicts the next state from the current state and action
and is trained by mean squared error. Its planner runs the same
perturb-and-reweight kernel as the state-space planner (``mppi_refine``), but
the noise lives in action space and candidate action sequences are rolled
through the model to obtain the predicted states that get scored.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .nn import (
    SCORING_DTYPE,
    AdamState,
    MlpParams,
    adam_step,
    backward,
    forward_cached,
    mlp_init,
)
from .planner import PlannerConfig, mppi_refine


@dataclass
class ActionFFModel:
    """Deterministic next-state predictor ``s' = net(s, a)``; ``state_dim`` is the
    net's output size and ``action_dim`` the rest of its input size."""

    net: MlpParams
    state_dim: int = field(init=False)
    action_dim: int = field(init=False)

    def __post_init__(self) -> None:
        self.state_dim = self.net.out_dim
        self.action_dim = self.net.in_dim - self.net.out_dim
        if self.action_dim < 1:
            raise ValueError(f"a forward model maps state_dim + action_dim inputs to state_dim "
                             f"outputs, not {self.net.in_dim} to {self.net.out_dim}")


def make_action_ff(
    state_dim: int,
    action_dim: int,
    rng: np.random.Generator,
    hidden_sizes: tuple[int, ...],
) -> ActionFFModel:
    dims = [state_dim + action_dim, *hidden_sizes, state_dim]
    return ActionFFModel(mlp_init(dims, rng))


def ff_predict(model: ActionFFModel, rows: np.ndarray) -> np.ndarray:
    """Next-state predictions for (n, state_dim + action_dim) rows of (state, action);
    ``forward_cached`` rejects rows of any other width."""
    return forward_cached(model.net, rows)[0]


def pack_transitions(states, actions, next_states) -> np.ndarray:
    """Concatenate n aligned states, actions and next states into n ``(s, a, s')`` rows."""
    return np.concatenate([states, actions, next_states], axis=1)


def ff_mse_loss_and_grads(model: ActionFFModel, rows: np.ndarray):
    """Mean squared prediction error over a batch of ``pack_transitions`` rows and
    its exact gradients: the net reads each row's (s, a) and fits its s'."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    in_dim, width = model.net.in_dim, model.net.in_dim + model.net.out_dim
    if rows.shape[0] == 0 or rows.shape[1] != width:
        raise ValueError(f"expected a non-empty (n, {width}) batch of (s, a, s') rows, "
                         f"got {rows.shape}")
    pred, cache = forward_cached(model.net, rows[:, :in_dim])
    err = pred - rows[:, in_dim:]
    loss = float(np.mean(err**2))
    # d loss / d pred for mean over n * state_dim entries
    grads, _ = backward(model.net, cache, 2.0 * err / err.size)
    return loss, grads


def ff_train_step(
    model: ActionFFModel,
    batch: tuple[np.ndarray],
    learning_rate: float,
    adam_state: AdamState,
) -> tuple[ActionFFModel, AdamState, float]:
    """One Adam step on the mean squared next-state prediction error.

    ``batch`` holds one array of ``pack_transitions`` rows.
    """
    (rows,) = batch
    loss, grads = ff_mse_loss_and_grads(model, rows)
    net, new_state = adam_step(model.net, grads, adam_state, learning_rate)
    return ActionFFModel(net), new_state, loss


def _rollout(model: ActionFFModel, s_start: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """Predicted states (H + 1, n, state_dim) of n (H, action_dim) action sequences.

    Steps one (H + 1, n, state_dim + action_dim) tape in the net's dtype: every
    action is written once, then each step writes its prediction into the
    state columns of the next row.
    """
    n, horizon, _ = actions.shape
    s_dim = model.state_dim
    tape = np.empty((horizon + 1, n, s_dim + model.action_dim), dtype=model.net.flat.dtype)
    tape[:horizon, :, s_dim:] = actions.transpose(1, 0, 2)
    states = tape[:, :, :s_dim]
    states[0] = s_start
    for t in range(horizon):
        states[t + 1] = ff_predict(model, tape[t])
    return states


def ff_plan(
    model: ActionFFModel,
    s_start: np.ndarray,
    goal: np.ndarray,
    config: PlannerConfig,
    rng: np.random.Generator,
    action_clip: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Plan a (horizon-1, action_dim) action sequence by MPPI in action space.

    Sampled action sequences are perturbed by ``mppi_refine`` with smooth
    noise, clipped by ``action_clip`` (the environment's admissible-action
    projection; must accept batches), rolled through the model, and scored by
    the squared distance of the predicted final state to the goal, the
    action-FF objective (see ``experiments.MODEL_KINDS``); ``config.score_mode``
    and ``config.goal_weight`` are not read. Returns the weighted-average
    action sequence together with its own model rollout, so the returned
    trajectory is exactly the prediction for the returned actions.
    Scoring and the returned trajectory share ``_rollout``: the samples roll
    through a ``SCORING_DTYPE`` copy of the net, made once per call, so only
    their final predicted states are upcast, and the returned plan rolls
    through the caller's float64 model, which is untouched.
    """
    s_start = np.asarray(s_start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if s_start.shape != (model.state_dim,):
        raise ValueError(f"start shape {s_start.shape} != ({model.state_dim},)")
    if goal.shape != (model.state_dim,):
        raise ValueError(f"goal shape {goal.shape} != ({model.state_dim},)")
    scorer = ActionFFModel(model.net.astype(SCORING_DTYPE))

    def distance_to_goal(samples: np.ndarray) -> np.ndarray:
        return ((_rollout(scorer, s_start, samples)[-1].astype(float) - goal) ** 2).sum(axis=1)

    candidate = mppi_refine(
        np.zeros((config.horizon - 1, model.action_dim)),
        action_clip,
        distance_to_goal,
        config,
        rng,
    )
    return candidate, _rollout(model, s_start, candidate[None])[:, 0]
