"""Self-tests of the benchmark: arithmetic, checks, and the layer wrappers.

Run with ``python3 -m pytest bench/test_bench.py`` from the repository root.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_times_subtract_direct_children_only():
    #   A [0, 10]
    #     B [1, 4]
    #       C [2, 3]
    #     D [5, 9]
    #   A [20, 22]
    names = ["A", "B", "C", "D", "A"]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 9.0, 22.0]
    parents = [-1, 0, 1, 0, -1]
    own = tracing.self_times(names, starts, ends, parents)
    assert own == pytest.approx({"A": 3.0 + 2.0, "B": 2.0, "C": 1.0, "D": 4.0})
    assert sum(own.values()) == pytest.approx(10.0 + 2.0)


def test_only_direct_same_layer_nesting_folds():
    tracer = tracing.Tracer()
    inner = tracer.wrap("energy.score", lambda: 1)
    other = tracer.wrap("nn.forward", lambda: inner())
    outer = tracer.wrap("energy.score", lambda: inner() + other())
    assert outer() == 2
    # the direct inner call folds into the outer span; the one under nn.forward does not
    assert tracer.names == ["energy.score", "nn.forward", "energy.score"]
    assert tracer.parents == [-1, 0, 1]
    summary = tracer.summary(wall_s=1.0)
    assert summary["energy.score.calls"] == 2
    assert summary["nn.forward.calls"] == 1


def test_percentile_interpolates():
    values = [float(v) for v in range(1, 101)]
    assert tracing.percentile(values, 50.0) == pytest.approx(50.5)
    assert tracing.percentile(values, 99.0) == pytest.approx(99.01)
    assert tracing.percentile([], 99.0) == 0.0


@pytest.mark.parametrize(
    "n, pct",
    [(20000, 99.9), (10000, 99.9), (9999, 99.0), (2573, 99.0), (1000, 99.0),
     (999, 95.0), (440, 95.0), (200, 95.0), (199, 90.0), (100, 90.0),
     (40, 75.0), (39, 50.0), (0, 50.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert tracing.tail_percentile(n) == pct


# ---------------------------------------------------------------------------
# output checks and behaviour numbers


def _write(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def test_last_quartile_on_hand_made_csvs(tmp_path):
    _write(tmp_path / "episodes.csv",
           "seed,episode,score\n" + "".join(f"0,{i},{-8.0 + i}\n" for i in range(8)))
    _write(tmp_path / "metrics.csv",
           "seed,step,episode,score,loss,executed,occupancy\n"
           + "".join(f"0,{i},0,0.0,{float(i)},1,1\n" for i in range(1, 6)))
    online = checks.behaviour(tmp_path, "online")
    assert online["score_last_quartile"] == pytest.approx((-2.0 + -1.0) / 2)
    assert online["loss_last_quartile"] == pytest.approx(5.0)  # 5 rows: the last one

    _write(tmp_path / "pretrain.csv",
           "seed,step,loss\n" + "".join(f"0,{100 * i},{0.1 * i}\n" for i in range(12)))
    pre = checks.behaviour(tmp_path, "pretrain")
    assert pre == {"loss_last_quartile": pytest.approx((0.9 + 1.0 + 1.1) / 3)}
    with pytest.raises(ValueError):
        checks.last_quartile_mean([])


def test_digest_check_flags_a_one_byte_change(tmp_path):
    a = _write(tmp_path / "metrics.csv", "seed,step\n0,1\n")
    _write(tmp_path / "model.npz", "\x00\x01\x02")
    before = checks.digests(tmp_path)
    assert checks.digest_mismatches(before, checks.digests(tmp_path)) == []
    a.write_text("seed,step\n0,2\n")
    assert checks.digest_mismatches(before, checks.digests(tmp_path)) == ["metrics.csv"]
    (tmp_path / "model.npz").unlink()
    assert checks.digest_mismatches(before, checks.digests(tmp_path)) == [
        "metrics.csv", "model.npz"
    ]


def test_output_problems_catch_missing_files_headers_and_non_finite(tmp_path):
    headers = {"pretrain": ["seed", "step", "loss"]}
    expected = checks.expected_outputs("pretrain", "ebm", 0)
    assert checks.output_problems(tmp_path, expected, headers) == [
        "pretrain.csv: missing", "model_ebm_seed0.npz: missing"
    ]
    _write(tmp_path / "model_ebm_seed0.npz", "x")
    _write(tmp_path / "pretrain.csv", "seed,step,loss\n0,0,0.5\n")
    assert checks.output_problems(tmp_path, expected, headers) == []
    _write(tmp_path / "pretrain.csv", "seed,step,loss\n0,0,0.5\n0,100,nan\n")
    assert checks.output_problems(tmp_path, expected, headers) == [
        "pretrain.csv:3: non-finite value"
    ]
    _write(tmp_path / "pretrain.csv", "seed,step,loss,extra\n0,0,0.5,1\n")
    assert len(checks.output_problems(tmp_path, expected, headers)) == 1


# ---------------------------------------------------------------------------
# BENCHMARK.json and the frozen workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# keys a frozen workload may change relative to its shipped config: the run
# length (so 22 runs of every workload fit the benchmark's time budget), the
# seed list (the seed is a benchmark argument) and the output directory
RESIZED = {"seeds", "out_dir", "env_step_budget", "dataset_size", "pretrain_steps"}


def test_benchmark_json_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"][1] == "bench/run.py" and SPEC["paths"] == ["bench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_frozen_workload_differs_from_shipped_config_only_in_run_length(name):
    frozen = json.loads((BENCH / "workloads" / f"{name}.json").read_text())
    shipped = json.loads(
        (ROOT / "src" / "ebmplan" / "configs" / run.WORKLOADS[name].shipped).read_text()
    )
    flat = lambda c: {**{k: v for k, v in c.items() if k != "online"}, **c.get("online", {})}  # noqa: E731
    frozen, shipped = flat(frozen), flat(shipped)
    changed = {k for k in set(frozen) | set(shipped) if frozen.get(k) != shipped.get(k)}
    assert changed <= RESIZED
    assert frozen["seeds"] == [0]


# ---------------------------------------------------------------------------
# shortened traced runs: every layer a workload exercises reports calls

SHORT = {"env_step_budget": 60, "dataset_size": 500, "pretrain_steps": 20}

EXERCISED = {
    "ebm_online_reacher": {
        "nn.forward", "nn.backward", "nn.adam", "energy.score", "energy.contrastive",
        "planner.plan", "planner.noise", "planner.weights", "online.execute",
        "online.replay", "envs.step", "envs.inverse", "experiments.io",
    },
    "ff_online_particle": {
        "nn.forward", "nn.backward", "nn.adam", "planner.noise", "planner.weights",
        "online.execute", "online.replay", "envs.step", "envs.inverse",
        "baselines.ff_plan", "baselines.ff_predict", "baselines.ff_train", "experiments.io",
    },
    "ebm_pretrain_particle": {
        "nn.forward", "nn.backward", "nn.adam", "energy.negatives", "energy.contrastive",
        "envs.step", "experiments.dataset", "experiments.io",
    },
}


def _short_run(name: str, tmp_path: Path, traced: bool) -> tuple[dict, dict]:
    config = json.loads((BENCH / "workloads" / f"{name}.json").read_text())
    for section in (config, config.get("online", {})):
        for key, value in SHORT.items():
            if key in section:
                section[key] = value
    config_path = _write(tmp_path / "config.json", json.dumps(config))
    tag = "traced" if traced else "plain"
    out, result = tmp_path / tag, tmp_path / f"{tag}.json"
    cmd = [sys.executable, str(BENCH / "runner.py"), "--kind", config["kind"],
           "--config", str(config_path), "--seed", "3", "--out", str(out),
           "--result", str(result), "--spawned", repr(time.monotonic())]
    if traced:
        cmd += ["--spans", str(tmp_path / "spans.csv.gz")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text()), checks.digests(out)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_shortened_traced_run_reaches_every_layer(name, tmp_path):
    plain, plain_digests = _short_run(name, tmp_path, traced=False)
    traced, traced_digests = _short_run(name, tmp_path, traced=True)
    assert traced_digests == plain_digests
    layers = traced["layers"]
    calls = {layer: layers[f"{layer}.calls"] for layer in tracing.LAYERS}
    assert {layer for layer, n in calls.items() if n > 0} == EXERCISED[name]
    assert layers["nn.forward.rows"] > 0 and layers["nn.forward.gflop"] > 0
    own = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS) + layers["other.self_s"]
    assert own == pytest.approx(traced["wall_s"])
    # run.py adds these from the traced/untraced pair and the outputs
    added = {"trace.wall_s", "trace.overhead", "behaviour.score_last_quartile",
             "behaviour.loss_last_quartile"}
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers) | added
