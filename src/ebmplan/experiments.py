"""Config-driven experiment runners and their CSV/SVG outputs.

Every experiment kind is reproducible: a fixed config plus seed list yields
bit-identical output files. ``run_experiment`` runs the seeds of every kind
but heatmap through one loop, keeps each seed's rows and checkpoint in
memory, and writes nothing until every seed has run; the rows are then
merged in sorted seed order. Each file is written to a temporary file beside
it and then renamed into place. Progress lines go to stdout; no wall-clock
time enters any output file.
"""

from __future__ import annotations

import json
import types
from dataclasses import dataclass, field, is_dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from ._io import write_atomic
from .baselines import ActionFFModel, ff_plan, ff_train_step, make_action_ff, pack_transitions
from .energy import (
    EnergyModel,
    collate,
    contrastive_train_step,
    make_energy_model,
    pack_pairs,
    sample_negative_pairs,
    transition_energies,
)
from .envs import ENV_FACTORIES, MAP_HIGH, MAP_LOW, EnvSpec, MazeLayout, make_env, occupancy_cells
from .nn import check_update, init_adam_state, load_mlp, param_norm, save_mlp
from .online import OnlineConfig, OnlineResult, run_online
from .planner import PlannerConfig, plan, plan_target
from .svg import write_heatmap_svg

PRETRAIN_MODES = ("shuffled", "sequential-repeated")
EXPLORE_POLICIES = ("random", "ebm-prior")
# the wall (x_min, y_min, x_max, y_max) that the comparison kind adds to the particle map
COMPARISON_OBSTACLE = (0.28, -0.22, 0.38, 0.26)
_PRETRAIN_KEYS = {"hidden_sizes", "learning_rate", "dataset_size", "dataset_reset_every",
                  "pretrain_steps", "pretrain_batch", "negative_scale"}
# the top-level keys each kind reads beyond kind, env, env_options, model, seeds and out_dir
KIND_KEYS = {
    "pretrain": _PRETRAIN_KEYS,
    "online": {"goal", "planner", "online", "hidden_sizes", "learning_rate"},
    "eval": {"goal", "planner", "episodes", "episode_length", "model_checkpoint"},
    "explore": {"planner", "online", "hidden_sizes", "learning_rate", "explore_policy"},
    "comparison": _PRETRAIN_KEYS | {"goal", "planner", "ff_learning_rate", "repeat_factor",
                                    "episodes", "episode_length"},
    "diversity": {"goal", "planner", "hidden_sizes", "model_checkpoint", "horizons", "trials"},
    "heatmap": {"hidden_sizes", "model_checkpoint", "resolution", "heatmap_displacement"},
}
EXPERIMENT_KINDS = tuple(KIND_KEYS)
# the keys, dotted inside the online section, that an explore policy never reads
EXPLORE_UNREAD = {
    "random": {"planner", "hidden_sizes", "learning_rate", "online.deviation_threshold",
               "online.batch_size", "online.buffer_capacity"},
    "ebm-prior": set(),
}
_COMMON_KEYS = {"kind", "env", "env_options", "model", "seeds", "out_dir"}

CSV_HEADERS = {
    "online": ("seed", "step", "episode", "score", "loss", "executed", "occupancy"),
    "episodes": ("seed", "episode", "score"),
    "eval": ("seed", "episode", "score"),
    "explore": ("seed", "step", "occupancy"),
    "pretrain": ("seed", "step", "loss"),
    "obstacle": ("seed", "model", "condition", "episode", "score"),
    "ablation": ("seed", "model", "mode", "episode", "score"),
    "diversity": ("seed", "horizon", "spread"),
}


# ---------------------------------------------------------------------------
# csv plumbing


def _format_cell(value) -> str:
    # plain-float repr round-trips exactly and avoids numpy scalar reprs
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: str | Path, header: tuple[str, ...], rows) -> None:
    """Write rows atomically: temp file in the same directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines += [",".join(_format_cell(v) for v in row) for row in rows]
    write_atomic(path, ("\n".join(lines) + "\n").encode())


# ---------------------------------------------------------------------------
# model kinds


class ModelKind(NamedTuple):
    """What the runners need from one model kind; ``MODEL_KINDS`` holds one per kind."""

    make: Callable  # (state_dim, action_dim, rng, hidden_sizes) -> a fresh model
    wrap: Callable  # (net) -> a model around a loaded net, sized by the net
    target: Callable  # (spec, goal, planner_config) -> what the kind plans against
    # (spec, target, planner_config, model, state, rng) -> a planned state
    # trajectory, for run_online, or the one action to take, for evaluate_model
    trajectory: Callable
    action: Callable
    fresh_rows: Callable  # run_online's, with spec as the first argument
    train_step: Callable  # (model, batch, learning_rate, adam_state), for both loops
    pretrain_rows: Callable  # (dataset) -> the rows that pretrain draws batches from
    pretrain_batch: Callable  # (model, rows, rng, negative_scale) -> a train_step batch


# Every field calls its library function by its module-global name when it
# runs: bench/tracing.py times a function by rebinding that global, so a
# function held in a record would run untraced.
MODEL_KINDS = {
    "ebm": ModelKind(
        make=lambda s_dim, a_dim, rng, hidden: make_energy_model(s_dim, rng, hidden),
        wrap=lambda net: EnergyModel(net),
        # the goal, the goal's reward or nothing, as planner.score_mode says
        target=lambda spec, goal, cfg: plan_target(spec, goal, cfg),
        trajectory=lambda spec, target, cfg, model, state, rng: plan(
            model, state, target, cfg, rng),
        action=lambda spec, target, cfg, model, state, rng: spec.inverse_dynamics(
            state, plan(model, state, target, cfg, rng)[1]),
        # executed transitions as positives, the attempted planned ones as negatives
        fresh_rows=lambda spec, real, prefix, actions: (collate(real), collate(prefix)),
        train_step=lambda *args: contrastive_train_step(*args),
        # dataset pairs as positives, negatives drawn around them from the current model
        pretrain_rows=lambda dataset: pack_pairs(dataset[0], dataset[2]),
        pretrain_batch=lambda model, rows, rng, scale: (
            rows, sample_negative_pairs(model, rows, rng, scale=scale)),
    ),
    "action-ff": ModelKind(
        make=lambda s_dim, a_dim, rng, hidden: make_action_ff(s_dim, a_dim, rng, hidden),
        wrap=lambda net: ActionFFModel(net),
        # The action-FF objective: the squared distance of the predicted final
        # state to the goal. It ignores planner.score_mode and goal_weight, so
        # the two kinds given one planner section plan against different objectives.
        target=lambda spec, goal, cfg: goal,
        trajectory=lambda spec, goal, cfg, model, state, rng: ff_plan(
            model, state, goal, cfg, rng, spec.clip_action)[1],
        action=lambda spec, goal, cfg, model, state, rng: ff_plan(
            model, state, goal, cfg, rng, spec.clip_action)[0][0],
        # (s, a, s') rows, a the command execute_plan sent, clipped as the env clips it
        fresh_rows=lambda spec, real, prefix, actions: (
            pack_transitions(real[:-1], spec.clip_action(actions), real[1:]),),
        train_step=lambda *args: ff_train_step(*args),
        pretrain_rows=lambda dataset: pack_transitions(*dataset),
        pretrain_batch=lambda model, rows, rng, scale: (rows,),
    ),
}


def _model_kind(name: str) -> ModelKind:
    if name not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {name!r}")
    return MODEL_KINDS[name]


# ---------------------------------------------------------------------------
# datasets and pretraining


def gen_random_dataset(
    spec: EnvSpec, n: int, rng: np.random.Generator, reset_every: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roll ``spec.random_action``, resetting periodically, into (s, a, s')."""
    if n < 1:
        raise ValueError("dataset size must be >= 1")
    states = np.empty((n, spec.state_dim))
    actions = np.empty((n, spec.action_dim))
    next_states = np.empty((n, spec.state_dim))
    state = spec.start_state.copy()
    for i in range(n):
        if i > 0 and i % reset_every == 0:
            state = spec.start_state.copy()
        action = spec.random_action(rng)
        nxt = spec.step(state, action)
        states[i] = state
        actions[i] = action
        next_states[i] = nxt
        state = nxt
    return states, actions, next_states


@dataclass
class PretrainResult:
    model: object
    losses: list[tuple[int, float]]  # (step, loss) every 100 steps and at the last


def pretrain(
    model_kind: str,
    dataset: tuple[np.ndarray, np.ndarray, np.ndarray],
    mode: str,
    steps: int,
    rng: np.random.Generator,
    hidden_sizes: tuple[int, ...],
    learning_rate: float,
    batch_size: int,
    repeat_factor: int,
    negative_scale: float,
) -> PretrainResult:
    """Train a fresh model of ``model_kind`` on a static dataset, no replay buffer.

    ``shuffled`` draws batches of ``batch_size`` uniformly; ``sequential-repeated``
    walks the dataset in order, one datapoint held for ``repeat_factor``
    consecutive updates. The action-FF model fits next states by mean squared
    error. The energy model takes dataset pairs as positives and draws
    negatives around them from the current model by perturb-and-reweight, at
    ``negative_scale``, which the action-FF model ignores. No setting has a
    default. A diverged update (see ``check_update``) raises.
    """
    states, actions, next_states = dataset
    if states.shape[0] == 0:
        raise ValueError("dataset must be non-empty")
    if mode not in PRETRAIN_MODES:
        raise ValueError(f"mode must be one of {PRETRAIN_MODES}")
    kind = _model_kind(model_kind)
    model = kind.make(states.shape[1], actions.shape[1], rng, hidden_sizes)
    rows = kind.pretrain_rows(dataset)
    adam_state = init_adam_state(model.net)
    initial_norm = param_norm(model.net)
    n = states.shape[0]
    losses = []
    for step in range(steps):
        if mode == "shuffled":
            idx = rng.integers(0, n, size=batch_size)
        else:
            idx = np.array([(step // repeat_factor) % n])
        batch = kind.pretrain_batch(model, rows[idx], rng, negative_scale)
        model, adam_state, loss = kind.train_step(model, batch, learning_rate, adam_state)
        check_update(f"pretrain step {step}", loss, model.net, initial_norm)
        if step % 100 == 0 or step == steps - 1:
            losses.append((step, loss))
    return PretrainResult(model, losses)


# ---------------------------------------------------------------------------
# evaluation


def run_policy_episode(
    spec: EnvSpec,
    goal: np.ndarray,
    policy,
    episode_length: int,
) -> float:
    """One fixed-length episode under ``policy(state) -> action``.

    The score sums the reward of every state the agent occupies when acting,
    starting with the start state; the state reached by the final step is not
    scored. Each state is scored by one ``spec.reward`` call on that state.
    """
    state = spec.start_state.copy()
    total = 0.0
    for _ in range(episode_length):
        total += float(spec.reward(state, goal))
        state = spec.step(state, policy(state))
    return total


def evaluate_model(model_kind: str, model, spec: EnvSpec, goal: np.ndarray,
                   planner_config: PlannerConfig, episodes: int, episode_length: int,
                   rng: np.random.Generator) -> list[float]:
    """Fixed-length episodes of a ``model_kind`` model, re-planning every step and
    taking one action."""
    goal = np.asarray(goal, dtype=float)
    kind = _model_kind(model_kind)
    target = kind.target(spec, goal, planner_config)

    def policy(state):
        return kind.action(spec, target, planner_config, model, state, rng)

    return [run_policy_episode(spec, goal, policy, episode_length) for _ in range(episodes)]


# ---------------------------------------------------------------------------
# online training and exploration


def online_train(model_kind: str, spec: EnvSpec, goal: np.ndarray | None, config: OnlineConfig,
                 rng: np.random.Generator) -> OnlineResult:
    """Train a fresh ``model_kind`` model through ``run_online`` until the step budget is spent.

    ``goal`` is None only for the energy model's goal-free (prior-only)
    exploration, whose episode scores are zero.
    """
    kind = _model_kind(model_kind)
    model = kind.make(spec.state_dim, spec.action_dim, rng, config.hidden_sizes)
    target = kind.target(spec, goal, config.planner)
    return run_online(spec, goal, config, rng, model,
                      partial(kind.trajectory, spec, target, config.planner),
                      partial(kind.fresh_rows, spec), kind.train_step)


def run_explore(
    policy_kind: str, spec: EnvSpec, seed: int, config: OnlineConfig
) -> list[tuple[int, int]]:
    """Occupancy-versus-step series for one seed, over ``config.env_step_budget`` steps.

    ``random`` rolls the uniform policy, reset every ``episode_length`` steps;
    ``ebm-prior`` trains an energy model through ``online_train`` with no goal,
    planning with ``config.planner`` as given, and reads its metrics. Occupancy
    counts the cells of side ``envs.OCCUPANCY_CELL`` entered by executed transitions.
    """
    rng = np.random.default_rng(seed)
    if policy_kind == "random":
        _, _, reached = gen_random_dataset(spec, config.env_step_budget, rng, config.episode_length)
        visited: set = set()
        series = []
        for step, state in enumerate(reached, start=1):
            visited |= occupancy_cells(state[None, :])
            series.append((step, len(visited)))
        return series
    if policy_kind == "ebm-prior":
        result = online_train("ebm", spec, None, config, rng)
        return [(row.step, row.occupancy) for row in result.metrics]
    raise ValueError(f"unknown exploration policy {policy_kind!r}")


# ---------------------------------------------------------------------------
# diversity and heatmaps


def run_diversity(
    model: EnergyModel,
    s_start: np.ndarray,
    target,
    horizons: list[int],
    trial_seeds: list[int],
    planner_config: PlannerConfig,
) -> dict[int, float]:
    """Mean pairwise distance between midpoints of plans toward ``target``, per horizon."""
    if len(trial_seeds) < 2:
        raise ValueError("need at least two trials")
    spreads = {}
    for horizon in horizons:
        config = replace(planner_config, horizon=horizon)
        midpoints = []
        for trial_seed in trial_seeds:
            rng = np.random.default_rng(trial_seed)
            traj = plan(model, s_start, target, config, rng)
            midpoints.append(traj[horizon // 2])
        midpoints = np.stack(midpoints)
        diffs = midpoints[:, None, :] - midpoints[None, :, :]
        dists = np.linalg.norm(diffs, axis=-1)
        m = len(trial_seeds)
        spreads[horizon] = float(dists[np.triu_indices(m, k=1)].mean())
    return spreads


def energy_heatmap(
    model: EnergyModel,
    resolution: int,
    displacement: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Transition energies at zero (or fixed) displacement over a grid of the 2-D map.

    Row index follows y and column index x, both increasing with coordinate.
    """
    if model.state_dim != 2:
        raise ValueError("heatmaps are only defined for 2-D state spaces")
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    centers = MAP_LOW + (np.arange(resolution) + 0.5) * (MAP_HIGH - MAP_LOW) / resolution
    xs, ys = np.meshgrid(centers, centers)
    points = np.stack([xs.ravel(), ys.ravel()], axis=1)
    pairs = pack_pairs(points, points + np.asarray(displacement, dtype=float))
    return transition_energies(model, pairs).reshape(resolution, resolution)


# ---------------------------------------------------------------------------
# experiment config

_SCALAR_NAMES = {bool: "a boolean", int: "an integer", float: "a finite number", str: "a string"}
_PLURAL_NAMES = {bool: "booleans", int: "integers", float: "finite numbers", str: "strings"}


def _accepts(kind: type, value) -> bool:
    # JSON has one number type: an integer may fill a float field, a bool only a
    # bool field. A float field takes no NaN, Infinity or integer past float range.
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float)) and abs(value) <= float(np.finfo(float).max)
    return isinstance(value, kind)


def _build(cls: type, data: dict, prefix: str = ""):
    """Build dataclass ``cls`` from a JSON object, checking each value's type.

    Field types in use: scalars, ``X | None``, ``list[X]``, ``tuple[X, ...]``,
    fixed-length ``tuple[X, X]``, ``dict``, and dataclass sections, which must
    be JSON objects (or instances) and are built recursively. A list becomes
    a tuple wherever the field is a tuple. Unknown keys at any depth, and
    values that a section's own checks reject, are named by dotted path.
    """
    hints = get_type_hints(cls)
    unknown = sorted(prefix + key for key in set(data) - set(hints))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    values = dict(data)
    for key, value in data.items():
        hint = hints[key]
        options = get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
        if value is None and type(None) in options:
            continue
        kind = options[0]
        origin, args = get_origin(kind), get_args(kind)
        got = type(value).__name__
        if kind in _SCALAR_NAMES:
            expected, ok = _SCALAR_NAMES[kind], _accepts(kind, value)
        elif origin in (list, tuple):
            fixed = origin is tuple and Ellipsis not in args
            count = f"{len(args)} " if fixed else ""
            expected = f"a list of {count}{_PLURAL_NAMES[args[0]]}"
            ok = isinstance(value, (list, tuple))
            if ok:
                bad = [type(v).__name__ for v in value if not _accepts(args[0], v)]
                ok = not bad and (not fixed or len(value) == len(args))
                got = f"a list with a {bad[0]}" if bad else f"a list of {len(value)}"
                values[key] = origin(value)
        else:
            expected = "an object"
            ok = isinstance(value, dict) or (is_dataclass(kind) and isinstance(value, kind))
            if ok and is_dataclass(kind) and isinstance(value, dict):
                values[key] = _build(kind, value, f"{prefix}{key}.")
        if not ok:
            raise ValueError(f"{prefix}{key}: expected {expected}, got {got}")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:  # a required field left out, or a limit broken
        raise ValueError(f"{prefix}{exc}") from None


@dataclass
class ExperimentConfig:
    """Flat, JSON-loadable description of one experiment run."""

    kind: str
    env: str = "particle"
    env_options: dict = field(default_factory=dict)
    model: str = "ebm"
    goal: list[float] | None = None
    seeds: list[int] = field(default_factory=lambda: [0])
    out_dir: str = "results"
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    online: dict = field(default_factory=dict)
    hidden_sizes: tuple[int, ...] = (64, 64)
    learning_rate: float = 1e-3
    # pretraining / comparison
    dataset_size: int = 20000
    dataset_reset_every: int = 400
    pretrain_steps: int = 3000
    pretrain_batch: int = 48
    ff_learning_rate: float = 3e-3
    repeat_factor: int = 100
    negative_scale: float = 0.1
    # evaluation
    episodes: int = 3
    episode_length: int = 50
    model_checkpoint: str | None = None
    # explore
    explore_policy: str = "ebm-prior"
    # diversity
    horizons: list[int] = field(default_factory=lambda: [10, 20, 40])
    trials: int = 16
    # heatmap
    resolution: int = 40
    heatmap_displacement: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if not self.seeds or min(self.seeds) < 0:
            raise ValueError("seeds must be a non-empty list of non-negative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("seeds must be distinct")
        if self.kind == "heatmap" and len(self.seeds) != 1:
            raise ValueError("experiment 'heatmap' renders one model: give exactly one seed")
        if self.env not in ENV_FACTORIES:
            raise ValueError(f"unknown environment kind {self.env!r}")
        _model_kind(self.model)
        if self.kind in ("explore", "diversity", "heatmap") and self.model != "ebm":
            raise ValueError(f"experiment {self.kind!r} needs model 'ebm', an energy network")
        for name in ("pretrain_steps", "dataset_size", "dataset_reset_every", "pretrain_batch",
                     "repeat_factor", "episodes", "episode_length", "resolution"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("learning_rate", "ff_learning_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.negative_scale < 0:
            raise ValueError("negative_scale must be non-negative")
        if self.trials < 2:
            raise ValueError("trials must be >= 2")
        if min(self.hidden_sizes, default=1) < 1:
            raise ValueError("hidden_sizes must all be >= 1")
        online = self.online_config()
        if self.kind in ("online", "explore") and online.env_step_budget < 1:
            raise ValueError("online.env_step_budget must be >= 1")
        if self.kind == "diversity" and min(self.horizons, default=0) < 2:
            raise ValueError("horizons must be a non-empty list of integers >= 2")
        if self.kind == "eval" and self.model_checkpoint is None:
            raise ValueError("experiment 'eval' needs model_checkpoint")
        spec = self.make_env()
        if self.kind == "comparison":
            self.obstacle_env()
        if self.kind == "explore":
            if self.explore_policy not in EXPLORE_POLICIES:
                raise ValueError(f"unknown exploration policy {self.explore_policy!r}")
            if self.explore_policy == "ebm-prior" and self.planner.score_mode != "prior-only":
                raise ValueError("explore_policy 'ebm-prior' needs planner.score_mode 'prior-only'")
        if "goal" in KIND_KEYS[self.kind]:  # it plans towards, or scores against, the goal
            if self.goal is None:
                raise ValueError(f"experiment {self.kind!r} needs a goal")
            if np.shape(self.goal) != (spec.state_dim,):
                raise ValueError(f"goal shape {np.shape(self.goal)} != ({spec.state_dim},)")

    def make_env(self) -> EnvSpec:
        options = dict(self.env_options)
        accepted = {"start", "walls"} if self.env == "maze" else {"start"}
        unknown = sorted(f"env_options.{key}" for key in set(options) - accepted)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        try:
            if "walls" in options:
                options["layout"] = MazeLayout(tuple(tuple(w) for w in options.pop("walls")))
            return make_env(self.env, **options)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"env_options: {exc}") from None

    def obstacle_env(self) -> EnvSpec:
        """The comparison's blocked map: the particle map plus the wall ``COMPARISON_OBSTACLE``."""
        if self.env != "particle":
            raise ValueError("experiment 'comparison' runs on the particle environment only")
        start = tuple(self.make_env().start_state)
        try:
            return make_env("maze", layout=MazeLayout((COMPARISON_OBSTACLE,)), start=start)
        except ValueError as exc:
            raise ValueError(f"env_options.start: {exc}, the comparison's "
                             f"{COMPARISON_OBSTACLE}") from None

    def online_config(self) -> OnlineConfig:
        """The ``online`` section's loop settings, plus the planner, ``hidden_sizes`` and
        ``learning_rate`` of the top level, the one place that sets them. The
        top-level ``episode_length`` stays out: the section sets its own."""
        top = {"planner": self.planner, "hidden_sizes": self.hidden_sizes,
               "learning_rate": self.learning_rate}
        for key in top:
            if key in self.online:
                raise ValueError(f"online.{key}: set by the top level of the config")
        return _build(OnlineConfig, {**self.online, **top}, "online.")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build and check a config; a key its kind or explore policy never reads is an error."""
        if not isinstance(data, dict):
            raise ValueError(f"config: expected an object, got {type(data).__name__}")
        config = _build(cls, data)
        unread = sorted(set(data) - _COMMON_KEYS - KIND_KEYS[config.kind])
        reader = f"experiment {config.kind!r}"
        if config.kind == "explore" and not unread:
            given = set(data) | {f"online.{key}" for key in config.online}
            unread = sorted(given & EXPLORE_UNREAD[config.explore_policy])
            reader = f"explore policy {config.explore_policy!r}"
        if unread:
            raise ValueError(f"{unread[0]}: {reader} does not read it")
        return config

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# orchestration


def _log(quiet: bool, message: str) -> None:
    if not quiet:
        print(message, flush=True)


def _seed_models(config: ExperimentConfig, spec: EnvSpec):
    """seed -> the model to run: the ``model_checkpoint`` model, read once for every seed,
    or a fresh model seeded by ``seed``. A missing or unreadable checkpoint, or a net of the
    other kind or sized for another env, raises a ValueError that names the key and path."""
    kind = MODEL_KINDS[config.model]
    if config.model_checkpoint is None:
        return lambda seed: kind.make(spec.state_dim, spec.action_dim,
                                      np.random.default_rng(seed), config.hidden_sizes)
    path = config.model_checkpoint
    try:
        model = kind.wrap(load_mlp(path))
    except FileNotFoundError:
        raise ValueError(f"model_checkpoint: {path}: no such file") from None
    except (OSError, ValueError) as exc:
        raise ValueError(f"model_checkpoint: {path}: {exc}") from None
    for name in ("state_dim", "action_dim"):  # an energy model has no action_dim
        if getattr(model, name, getattr(spec, name)) != getattr(spec, name):
            raise ValueError(f"model_checkpoint: {path}: the net's {name} is "
                             f"{getattr(model, name)}, env {config.env!r} has "
                             f"{getattr(spec, name)}")
    return lambda seed: model


# CSV_HEADERS key -> output file stem, where the two differ
_CSV_STEMS = {"online": "metrics"}


def run_experiment(config: ExperimentConfig, quiet: bool = False) -> Path:
    """Run one experiment for all its seeds and write merged CSV outputs.

    Returns the output directory. Every file written is a pure function of
    the config contents. Nothing is written, and ``out_dir`` is not created,
    until every seed has run, so a run that fails leaves no output behind.
    """
    spec = config.make_env()
    model_of = _seed_models(config, spec)
    out_dir = Path(config.out_dir)
    if config.kind == "heatmap":
        _write_heatmap(config, model_of(config.seeds[0]), out_dir, quiet)
        return out_dir
    run_seed = _SEED_RUNNERS[config.kind]
    tables, nets = {}, {}
    for seed in config.seeds:
        try:
            tables[seed], nets[seed], line = run_seed(config, spec, seed, model_of)
        except ValueError as exc:
            raise ValueError(f"seed {seed}: {exc}") from None
        _log(quiet, line)
    order = sorted(tables)
    for key in tables[order[0]]:
        rows = [row for seed in order for row in tables[seed][key]]
        write_csv(out_dir / f"{_CSV_STEMS.get(key, key)}.csv", CSV_HEADERS[key], rows)
    for seed in order:
        if nets[seed] is not None:
            save_mlp(nets[seed], out_dir / f"model_{config.model}_seed{seed}.npz")
    return out_dir


# Each per-seed runner maps (config, spec, seed, model_of) to (rows by
# CSV_HEADERS key, the net to checkpoint or None, a progress line) and writes
# nothing; model_of(seed) is the model that eval and diversity run.


def _online_seed(config: ExperimentConfig, spec: EnvSpec, seed: int, model_of):
    goal = np.asarray(config.goal, dtype=float)
    result = online_train(config.model, spec, goal, config.online_config(),
                          np.random.default_rng(seed))
    tables = {
        "online": [(seed, m.step, m.episode, m.score, m.loss, m.executed, m.occupancy)
                   for m in result.metrics],
        "episodes": [(seed, i, score) for i, score in enumerate(result.episode_scores)],
    }
    line = f"online[{config.model}] seed {seed}: {len(result.episode_scores)} episodes"
    return tables, result.model.net, line


def _pretrain(config: ExperimentConfig, model_kind: str, mode: str, dataset, rng,
              learning_rate: float) -> PretrainResult:
    return pretrain(model_kind, dataset, mode, config.pretrain_steps, rng,
                    hidden_sizes=config.hidden_sizes, learning_rate=learning_rate,
                    batch_size=config.pretrain_batch, repeat_factor=config.repeat_factor,
                    negative_scale=config.negative_scale)


def _pretrain_seed(config: ExperimentConfig, spec: EnvSpec, seed: int, model_of):
    rng = np.random.default_rng(seed)
    dataset = gen_random_dataset(spec, config.dataset_size, rng, config.dataset_reset_every)
    result = _pretrain(config, config.model, "shuffled", dataset, rng, config.learning_rate)
    tables = {"pretrain": [(seed, step, loss) for step, loss in result.losses]}
    line = f"pretrain[{config.model}] seed {seed}: final loss {result.losses[-1][1]:.5f}"
    return tables, result.model.net, line


def _eval_seed(config: ExperimentConfig, spec: EnvSpec, seed: int, model_of):
    goal = np.asarray(config.goal, dtype=float)
    scores = evaluate_model(config.model, model_of(seed), spec, goal, config.planner, config.episodes,
                            config.episode_length, np.random.default_rng(seed))
    tables = {"eval": [(seed, i, s) for i, s in enumerate(scores)]}
    return tables, None, f"eval seed {seed}: mean score {np.mean(scores):.3f}"


def _explore_seed(config: ExperimentConfig, spec: EnvSpec, seed: int, model_of):
    series = run_explore(config.explore_policy, spec, seed, config.online_config())
    tables = {"explore": [(seed, step, occ) for step, occ in series]}
    line = f"explore[{config.explore_policy}] seed {seed}: final occupancy {series[-1][1]}"
    return tables, None, line


def _comparison_seed(config: ExperimentConfig, spec: EnvSpec, seed: int, model_of):
    """Both model kinds pretrained once per mode on one random dataset, then evaluated.

    Every model plays the open map, for ``ablation.csv``; the shuffled models
    also play the blocked map, for ``obstacle.csv``. The dataset comes from
    ``default_rng(seed)``, each pretraining from a fresh ``default_rng(seed + 17)``
    and each evaluation from a fresh ``default_rng(seed + 1)``, so seed s's
    evaluation stream is seed s+1's dataset stream.
    """
    goal = np.asarray(config.goal, dtype=float)
    blocked = config.obstacle_env()
    rng = np.random.default_rng(seed)
    dataset = gen_random_dataset(spec, config.dataset_size, rng, config.dataset_reset_every)
    tables, means = {"obstacle": [], "ablation": []}, []

    def play(model_kind, model, env, label):
        scores = evaluate_model(model_kind, model, env, goal, config.planner, config.episodes,
                                config.episode_length, np.random.default_rng(seed + 1))
        means.append(f"{label} {np.mean(scores):.3f}")
        return list(enumerate(scores))

    for model_kind, lr in (("ebm", config.learning_rate), ("action-ff", config.ff_learning_rate)):
        for mode in PRETRAIN_MODES:
            rng = np.random.default_rng(seed + 17)
            model = _pretrain(config, model_kind, mode, dataset, rng, lr).model
            scores = play(model_kind, model, spec, f"{model_kind}/{mode}")
            tables["ablation"] += [(seed, model_kind, mode, i, s) for i, s in scores]
            if mode == "shuffled":
                tables["obstacle"] += [(seed, model_kind, "open", i, s) for i, s in scores]
                scores = play(model_kind, model, blocked, f"{model_kind}/obstacle")
                tables["obstacle"] += [(seed, model_kind, "obstacle", i, s) for i, s in scores]
    return tables, None, f"comparison seed {seed}: mean " + " ".join(means)


def _diversity_seed(config: ExperimentConfig, spec: EnvSpec, seed: int, model_of):
    target = plan_target(spec, np.asarray(config.goal, dtype=float), config.planner)
    model = model_of(seed)
    trial_seeds = [int(v) for v in np.random.SeedSequence(seed).generate_state(config.trials)]
    spreads = run_diversity(model, spec.start_state, target, config.horizons, trial_seeds,
                            config.planner)
    tables = {"diversity": [(seed, h, spreads[h]) for h in config.horizons]}
    spread_text = " ".join(f"T{h}={spreads[h]:.3f}" for h in config.horizons)
    return tables, None, f"diversity seed {seed}: {spread_text}"


_SEED_RUNNERS = {
    "online": _online_seed,
    "pretrain": _pretrain_seed,
    "eval": _eval_seed,
    "explore": _explore_seed,
    "comparison": _comparison_seed,
    "diversity": _diversity_seed,
}


def _write_heatmap(config: ExperimentConfig, model: EnergyModel, out_dir: Path,
                   quiet: bool) -> None:
    # not per seed, a header that depends on the resolution, and an SVG beside the CSV
    matrix = energy_heatmap(model, config.resolution, displacement=config.heatmap_displacement)
    rows = [tuple(float(v) for v in row) for row in matrix]
    header = tuple(f"x{i}" for i in range(config.resolution))
    write_csv(out_dir / "heatmap.csv", header, rows)
    write_heatmap_svg(matrix, out_dir / "heatmap.svg")
    _log(quiet, f"heatmap: {config.resolution}x{config.resolution} grid written")
