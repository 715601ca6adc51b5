"""Outside-in span tracing of the ebmplan layers.

``Tracer.install`` replaces each traced public function, in every ebmplan
module namespace that bound it by name, with a wrapper that records a span:
name, start, end and the index of the enclosing span. Methods are wrapped on
their class, and the environment's ``step`` and ``inverse_dynamics`` are
wrapped on the spec that ``make_env`` returns. No line of the package changes;
the wrappers stay for the life of the process, so install only in a process
started for one traced run.

Spans stay in memory until the run ends. A layer's self time is the summed
duration of its spans minus the part covered by their child spans; a span
opened directly inside a span of the same layer is folded into it, so
``goal_scores`` calling ``trajectory_energies`` counts as one scoring call.
"""

from __future__ import annotations

import dataclasses
import gzip
import importlib
import os
from collections import defaultdict
from time import perf_counter

MODULES = (
    "ebmplan",
    "ebmplan.nn",
    "ebmplan.energy",
    "ebmplan.planner",
    "ebmplan.envs",
    "ebmplan.online",
    "ebmplan.baselines",
    "ebmplan.experiments",
    "ebmplan.cli",
)

# (layer, module, function) for module-level functions, wrapped in every
# namespace that bound them
FUNCTIONS = (
    ("nn.forward", "ebmplan.nn", "forward_cached"),
    ("nn.backward", "ebmplan.nn", "backward"),
    ("nn.adam", "ebmplan.nn", "adam_step"),
    ("energy.score", "ebmplan.energy", "goal_scores"),
    ("energy.score", "ebmplan.energy", "fixed_goal_scores"),
    ("energy.score", "ebmplan.energy", "reward_scores"),
    ("energy.score", "ebmplan.energy", "trajectory_energies"),
    ("energy.negatives", "ebmplan.energy", "sample_negative_pairs"),
    ("energy.contrastive", "ebmplan.energy", "contrastive_loss_and_grads"),
    ("planner.plan", "ebmplan.planner", "plan"),
    ("planner.weights", "ebmplan.planner", "mppi_weights"),
    ("online.execute", "ebmplan.online", "execute_plan"),
    ("baselines.ff_plan", "ebmplan.baselines", "ff_plan"),
    ("baselines.ff_predict", "ebmplan.baselines", "ff_predict"),
    ("baselines.ff_train", "ebmplan.baselines", "ff_train_step"),
    ("experiments.dataset", "ebmplan.experiments", "gen_random_dataset"),
    ("experiments.io", "ebmplan.experiments", "write_csv"),
    ("experiments.io", "ebmplan.nn", "save_mlp"),
)

# (layer, module, class, method), wrapped on the class
METHODS = (
    ("planner.noise", "ebmplan.planner", "SmoothNoiseGen", "sample"),
    ("online.replay", "ebmplan.online", "ReplayBuffer", "add"),
    ("online.replay", "ebmplan.online", "ReplayBuffer", "sample"),
)

ENV_LAYERS = ("envs.step", "envs.inverse")

LAYERS = tuple(dict.fromkeys(
    [layer for layer, *_ in FUNCTIONS] + [layer for layer, *_ in METHODS] + list(ENV_LAYERS)
))

# layers whose per-call latency is reported as a distribution
LATENCY_LAYERS = ("planner.plan", "baselines.ff_plan")


def self_times(names, starts, ends, parents) -> dict[str, float]:
    """Per-name self time: each span's duration minus its children's durations."""
    own = [e - s for s, e in zip(starts, ends)]
    for i, parent in enumerate(parents):
        if parent >= 0:
            own[parent] -= ends[i] - starts[i]
    totals: dict[str, float] = defaultdict(float)
    for name, t in zip(names, own):
        totals[name] += t
    return dict(totals)


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest of the usual tail percentiles with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return 50.0


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    def wrap(self, layer: str, fn, after=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self.stack
        )

        def traced(*args, **kwargs):
            if stack and names[stack[-1]] == layer:
                return fn(*args, **kwargs)
            idx = len(names)
            names.append(layer)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- counters measured at the layer boundaries

    def _forward(self, args, out):
        params, batch = args[0], args[1]
        rows = len(batch)
        self.counts["nn.forward.rows"] += rows
        self.counts["nn.forward.flop"] += 2.0 * rows * sum(w.size for w in params.weights)

    def _weights(self, args, out):
        self.counts["planner.ess.sum"] += 1.0 / float((out * out).sum()) / len(out)
        self.counts["planner.ess.n"] += 1

    def _execute(self, args, out):
        self.counts["online.planned"] += len(args[2]) - 1
        self.counts["online.executed"] += len(out[0]) - 1

    def _ff_predict(self, args, out):
        state = args[1]
        self.counts["baselines.ff_predict.rows"] += state.shape[0] if state.ndim == 2 else 1

    def _io(self, args, out):
        path = args[0] if isinstance(args[0], (str, os.PathLike)) else args[1]
        self.counts["experiments.io.bytes"] += os.path.getsize(path)

    # traced function -> the counter method run on its arguments and result
    _AFTER = {
        "forward_cached": "_forward",
        "mppi_weights": "_weights",
        "execute_plan": "_execute",
        "ff_predict": "_ff_predict",
        "write_csv": "_io",
        "save_mlp": "_io",
    }

    def install(self) -> None:
        """Wrap every traced function, method and env spec."""
        modules = [importlib.import_module(name) for name in MODULES]
        for layer, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            after = getattr(self, self._AFTER[attr]) if attr in self._AFTER else None
            self._rebind(modules, original, self.wrap(layer, original, after))
        for layer, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, self.wrap(layer, getattr(cls, attr)))
        make_env = importlib.import_module("ebmplan.envs").make_env

        def traced_make_env(*args, **kwargs):
            spec = make_env(*args, **kwargs)
            return dataclasses.replace(
                spec,
                step=self.wrap("envs.step", spec.step),
                inverse_dynamics=self.wrap("envs.inverse", spec.inverse_dynamics),
            )

        self._rebind(modules, make_env, traced_make_env)

    def _rebind(self, modules, original, replacement) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)

    # -- results

    def summary(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of a traced run whose ``cli.main`` call took ``wall_s``."""
        own = self_times(self.names, self.starts, self.ends, self.parents)
        calls: dict[str, int] = defaultdict(int)
        latencies: dict[str, list[float]] = defaultdict(list)
        for name, start, end in zip(self.names, self.starts, self.ends):
            calls[name] += 1
            if name in LATENCY_LAYERS:
                latencies[name].append(1e3 * (end - start))
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls.get(layer, 0)
            out[f"{layer}.self_s"] = own.get(layer, 0.0)
        c = self.counts
        out["nn.forward.rows"] = c["nn.forward.rows"]
        out["nn.forward.gflop"] = c["nn.forward.flop"] / 1e9
        fwd_s = own.get("nn.forward", 0.0)
        out["nn.forward.gflop_per_s"] = out["nn.forward.gflop"] / fwd_s if fwd_s > 0 else 0.0
        out["planner.ess_ratio"] = (
            c["planner.ess.sum"] / c["planner.ess.n"] if c["planner.ess.n"] else 0.0
        )
        out["online.exec_ratio"] = (
            c["online.executed"] / c["online.planned"] if c["online.planned"] else 0.0
        )
        out["baselines.ff_predict.rows"] = c["baselines.ff_predict.rows"]
        out["experiments.io.bytes"] = c["experiments.io.bytes"]
        for layer in LATENCY_LAYERS:
            samples = latencies.get(layer, [])
            tail = tail_percentile(len(samples))
            out[f"{layer}.ms_p50"] = percentile(samples, 50.0)
            out[f"{layer}.ms_tail"] = percentile(samples, tail)
            out[f"{layer}.tail_pct"] = tail if samples else 0.0
        out["other.self_s"] = wall_s - sum(own.values())
        out["trace.spans"] = len(self.names)
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped CSV: index, name, start_s, end_s, parent index."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            ):
                fh.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
