"""Small deterministic benchmark environments.

Three environments share one functional interface (``EnvSpec``): a point mass
on a 2-by-2 map, the same map with blocking walls, and a two-joint arm with
velocity-clamped double-integrator dynamics. Steps, rewards and exact inverse
dynamics are pure functions of the state, so independent rollouts never share
mutable state.

States are float vectors: ``(x, y)`` for particle/maze and
``(theta1, theta2, omega1, omega2)`` for the arm. Rewards are non-positive
distances to a goal, and ``inverse_dynamics`` returns the action that
reproduces a reachable one-step transition exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

PARTICLE_STEP_BOUND = 0.05
MAP_LOW, MAP_HIGH = -1.0, 1.0

REACHER_DT = 0.05
REACHER_OMEGA_MAX = 1.0
REACHER_TORQUE_BOUND = 1.0
OCCUPANCY_CELL = 0.1  # side of the grid cells that occupancy counts


def clip_to_ball(action: np.ndarray, radius: float) -> np.ndarray:
    """Project vectors (or a (..., d) batch of them) onto the radius ball."""
    action = np.asarray(action, dtype=float)
    norm = np.linalg.norm(action, axis=-1, keepdims=True)
    # radius / radius is exactly 1.0, so rows inside the ball, zero rows included, pass unchanged
    return action * (radius / np.maximum(norm, radius))


def wrap_angle(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]."""
    wrapped = np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


# ---------------------------------------------------------------------------
# particle


def particle_step(state: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Move by the action clipped to the step ball, clamped to the map."""
    state = np.asarray(state, dtype=float)
    move = clip_to_ball(action, PARTICLE_STEP_BOUND)
    return np.clip(state + move, MAP_LOW, MAP_HIGH)


def particle_reward(states: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Negative distance of each (..., 2) position to the goal's, shape (...)."""
    goal = np.asarray(goal, dtype=float)
    return -np.linalg.norm(np.asarray(states, dtype=float)[..., :2] - goal[:2], axis=-1)


def particle_inverse_dynamics(state: np.ndarray, desired: np.ndarray) -> np.ndarray:
    # Raw displacement; the environment's own clipping is applied at step time.
    return np.asarray(desired, dtype=float) - np.asarray(state, dtype=float)


def particle_random_action(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the step ball: direction uniform, radius ~ sqrt(u)."""
    angle = rng.uniform(0.0, 2.0 * np.pi)
    radius = PARTICLE_STEP_BOUND * np.sqrt(rng.uniform())
    return radius * np.array([np.cos(angle), np.sin(angle)])


# ---------------------------------------------------------------------------
# maze


@dataclass(frozen=True)
class MazeLayout:
    """Axis-aligned blocking rectangles as (x_min, y_min, x_max, y_max) rows."""

    walls: tuple[tuple[float, float, float, float], ...]

    def __post_init__(self) -> None:
        for rect in self.walls:
            x0, y0, x1, y1 = rect
            if not (x0 < x1 and y0 < y1):
                raise ValueError(f"degenerate wall rectangle {rect}")
            if x0 < MAP_LOW or y0 < MAP_LOW or x1 > MAP_HIGH or y1 > MAP_HIGH:
                raise ValueError(f"wall {rect} extends beyond the map")

    def admissible(self, point: np.ndarray) -> bool:
        """True unless the point lies strictly inside some wall."""
        x, y = float(point[0]), float(point[1])
        for x0, y0, x1, y1 in self.walls:
            if x0 < x < x1 and y0 < y < y1:
                return False
        return True

    def segment_blocked(self, start: np.ndarray, end: np.ndarray) -> bool:
        """True if the open interior of any wall intersects the segment."""
        for rect in self.walls:
            if _segment_enters_rect(start, end, rect):
                return True
        return False


def _segment_enters_rect(p: np.ndarray, q: np.ndarray, rect) -> bool:
    # Liang-Barsky clipping; touching the boundary only does not count as
    # entering, so motion can slide along a wall face.
    x0, y0, x1, y1 = rect
    t_lo, t_hi = 0.0, 1.0
    for axis, (lo, hi) in enumerate(((x0, x1), (y0, y1))):
        d = float(q[axis] - p[axis])
        a = float(p[axis])
        if d == 0.0:
            if a <= lo or a >= hi:
                return False
            continue
        t0, t1 = (lo - a) / d, (hi - a) / d
        if t0 > t1:
            t0, t1 = t1, t0
        t_lo = max(t_lo, t0)
        t_hi = min(t_hi, t1)
        if t_lo >= t_hi:
            return False
    return True


def maze_step(state: np.ndarray, action: np.ndarray, layout: MazeLayout) -> np.ndarray:
    """Particle step with rejection: blocked moves leave the state unchanged."""
    state = np.asarray(state, dtype=float)
    if not layout.admissible(state):
        raise ValueError(f"state {state} lies inside a wall")
    nxt = particle_step(state, action)
    if not layout.admissible(nxt) or layout.segment_blocked(state, nxt):
        return state.copy()
    return nxt


def default_maze_layout() -> MazeLayout:
    # S-shaped corridor: three slabs alternately attached to the left and
    # right map edges, leaving 0.4-wide openings.
    return MazeLayout(
        (
            (-1.0, 0.45, 0.6, 0.55),
            (-0.6, -0.05, 1.0, 0.05),
            (-1.0, -0.55, 0.6, -0.45),
        )
    )


# ---------------------------------------------------------------------------
# reacher


def reacher_clip(action: np.ndarray) -> np.ndarray:
    """Clip torques (or a (..., 2) batch of them) to the torque box."""
    return np.clip(np.asarray(action, dtype=float), -REACHER_TORQUE_BOUND, REACHER_TORQUE_BOUND)


def reacher_random_action(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw from the torque box."""
    return rng.uniform(-REACHER_TORQUE_BOUND, REACHER_TORQUE_BOUND, size=2)


def reacher_step(state: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Torque-as-acceleration double integrator with clamped joint velocity."""
    state = np.asarray(state, dtype=float)
    torque = reacher_clip(action)
    theta, omega = state[:2], state[2:]
    omega_new = np.clip(omega + torque * REACHER_DT, -REACHER_OMEGA_MAX, REACHER_OMEGA_MAX)
    theta_new = wrap_angle(theta + omega_new * REACHER_DT)
    return np.concatenate([theta_new, omega_new])


def reacher_reward(states: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Negative wrap-aware distance of each (..., 4) state's joint angles to the goal's."""
    goal = np.asarray(goal, dtype=float)
    diff = wrap_angle(np.asarray(states, dtype=float)[..., :2] - goal[:2])
    return -np.linalg.norm(diff, axis=-1)


def reacher_inverse_dynamics(state: np.ndarray, desired: np.ndarray) -> np.ndarray:
    state = np.asarray(state, dtype=float)
    desired = np.asarray(desired, dtype=float)
    omega_desired = wrap_angle(desired[:2] - state[:2]) / REACHER_DT
    return reacher_clip((omega_desired - state[2:]) / REACHER_DT)


# ---------------------------------------------------------------------------
# env spec


@dataclass(frozen=True)
class EnvSpec:
    """Bundle of the functions and constants that define one environment.

    ``reward(states, goal)`` maps (..., state_dim) states to (...) rewards; the
    planner's ``reward`` mode and every episode score call it.
    ``random_action(rng)`` draws uniformly from the action set that ``clip_action``
    projects onto. Each function is module-level or a ``partial`` of one, so a spec pickles.
    """

    state_dim: int
    action_dim: int
    start_state: np.ndarray
    step: Callable[[np.ndarray, np.ndarray], np.ndarray]
    reward: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inverse_dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray]
    clip_action: Callable[[np.ndarray], np.ndarray]
    random_action: Callable[[np.random.Generator], np.ndarray]
    maze_layout: MazeLayout | None = None


def _start_state(start, state_dim: int) -> np.ndarray:
    start = np.asarray(start, dtype=float)
    if start.shape != (state_dim,) or not np.isfinite(start).all():
        raise ValueError(f"start must be {state_dim} finite numbers, got {start.tolist()}")
    return start


def particle_env(start: tuple[float, float] = (-0.5, -0.5)) -> EnvSpec:
    return EnvSpec(
        state_dim=2,
        action_dim=2,
        start_state=_start_state(start, 2),
        step=particle_step,
        reward=particle_reward,
        inverse_dynamics=particle_inverse_dynamics,
        clip_action=partial(clip_to_ball, radius=PARTICLE_STEP_BOUND),
        random_action=particle_random_action,
    )


def maze_env(
    layout: MazeLayout | None = None, start: tuple[float, float] = (-0.5, -0.8)
) -> EnvSpec:
    """The particle environment with the walls of ``layout`` blocking its steps."""
    layout = default_maze_layout() if layout is None else layout
    spec = particle_env(start)
    if not layout.admissible(spec.start_state):
        raise ValueError("start state lies inside a wall")
    return replace(spec, step=partial(maze_step, layout=layout), maze_layout=layout)


def reacher_env(start: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)) -> EnvSpec:
    return EnvSpec(
        state_dim=4,
        action_dim=2,
        start_state=_start_state(start, 4),
        step=reacher_step,
        reward=reacher_reward,
        inverse_dynamics=reacher_inverse_dynamics,
        clip_action=reacher_clip,
        random_action=reacher_random_action,
    )


ENV_FACTORIES = {"particle": particle_env, "maze": maze_env, "reacher": reacher_env}


def make_env(kind: str, **kwargs) -> EnvSpec:
    if kind not in ENV_FACTORIES:
        raise ValueError(f"unknown environment kind {kind!r}")
    return ENV_FACTORIES[kind](**kwargs)


# ---------------------------------------------------------------------------
# occupancy


def occupancy_cells(states: np.ndarray) -> set[tuple[int, int]]:
    """Distinct ``OCCUPANCY_CELL`` grid cells visited by the first two state coordinates."""
    states = np.atleast_2d(np.asarray(states, dtype=float))
    cells = np.floor(states[:, :2] / OCCUPANCY_CELL).astype(np.int64)
    return {(int(cx), int(cy)) for cx, cy in cells}
