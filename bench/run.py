"""ebmplan benchmark: one workload, timed end to end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload ebm_online_reacher --seed 0 --seconds 40 --trace 0

Each execution is a fresh interpreter (``runner.py``) calling the user's
entry point ``ebmplan.cli.main`` on a workload config frozen under
``bench/workloads``, with the output directory redirected to a temporary
directory. Executions run one at a time, with BLAS on one thread. With
``--trace 0`` the workload runs on a few seeds derived from ``--seed``,
taking turns, until ``--seconds`` is used up (each seed at least twice); the
time metrics are medians per model update, scaled to the mean work of the
seeds. With ``--trace 1`` one untraced and one traced execution give the
per-layer metrics and the tracing overhead. Every execution is checked
(exit code, expected files, CSV headers, finite values, byte-identical
outputs across repeats and against earlier runs of the same source); a
failed check makes the command print ``"correct": false`` and exit 1. The last stdout line is the JSON result;
the full record, machine details included, goes to ``bench/out``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SRC = ROOT / "src"

# executions of each seed at least: the second one checks that outputs repeat
MIN_ROUNDS = 2
SETUP_PROBES = 5
# BLAS runs on one thread in every execution: with a thread per vCPU, a stall
# of either vCPU stalls every matrix product, and run-to-run spread tripled
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# stop starting executions after this long, so a run on a slowed-down host
# still ends well inside three minutes
TIME_LIMIT_S = 150.0


@dataclass(frozen=True)
class Workload:
    kind: str
    model: str
    shipped: str  # the shipped config under src/ebmplan/configs it was frozen from
    seeds: int  # seeds per timed run, derived from --seed; more where work varies by seed


# why each workload was chosen: see BENCHMARK.json and bench/README.md
WORKLOADS = {
    "ebm_online_reacher": Workload("online", "ebm", "online_reacher.json", 8),
    "ff_online_particle": Workload("online", "action-ff", "online_particle_actionff.json", 4),
    "ebm_pretrain_particle": Workload("pretrain", "ebm", "pretrain_particle_ebm.json", 4),
}


# ---------------------------------------------------------------------------
# records


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def source_digest() -> str:
    """sha256 over the package sources and shipped configs, with their paths."""
    h = hashlib.sha256()
    package = SRC / "ebmplan"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_steal_s() -> float | None:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL("libc.so.6"), "mallopt")
    except OSError:
        return False


def machine_record() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "glibc_mallopt": _has_mallopt(),
    }


def load_snapshot() -> dict:
    return {"loadavg_1m": os.getloadavg()[0], "cpu_steal_s": _cpu_steal_s()}


# ---------------------------------------------------------------------------
# executions


class Bench:
    def __init__(self, name: str, seed: int, tmp: Path, started: float):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        n = self.workload.seeds
        self.seeds = [seed * n + k for k in range(n)]
        self.tmp = tmp
        self.started = started
        self.config_path = BENCH / "workloads" / f"{name}.json"
        self.config = json.loads(self.config_path.read_text())
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.references: dict[int, dict[str, str]] = {}  # workload seed -> output digests
        self.runtime: dict = {}

    def spawn(self, seed: int, setup_only: bool = False,
              spans: Path | None = None) -> tuple[dict, list[str]]:
        self.attempted += 1
        tag = f"execution {self.attempted}"
        out = self.tmp / f"exec{self.attempted}"
        result_path = self.tmp / f"result{self.attempted}.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cmd = [sys.executable, str(BENCH / "runner.py"), "--kind", self.workload.kind,
               "--config", str(self.config_path), "--seed", str(seed),
               "--out", str(out), "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = max(10.0, TIME_LIMIT_S + 20.0 - (time.monotonic() - self.started))
        problems: list[str] = []
        result: dict = {"seed": seed}
        try:
            proc = subprocess.run(cmd + ["--spawned", repr(time.monotonic())], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            problems.append(f"{tag}: timed out after {timeout:.0f} s")
        else:
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-1:] or [""]
                problems.append(f"{tag}: exit code {proc.returncode} {tail[0]}")
            if result_path.is_file():
                result.update(json.loads(result_path.read_text()))
            elif not problems:
                problems.append(f"{tag}: no result file")
        for key, value in result.items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{tag}: {key} is {value}")
        if not setup_only and not problems:
            problems += [f"{tag}: {p}" for p in self._check_outputs(out, seed, result)]
        if out.exists():
            shutil.rmtree(out)
        if problems:
            self.failed += 1
            self.problems += problems
        return result, problems

    def _check_outputs(self, out: Path, seed: int, result: dict) -> list[str]:
        expected = checks.expected_outputs(self.workload.kind, self.workload.model, seed)
        problems = checks.output_problems(out, expected, result["csv_headers"])
        if problems:
            return problems
        result["digests"] = found = checks.digests(out)
        reference = self.references.setdefault(seed, found)
        diff = checks.digest_mismatches(reference, found)
        if diff:
            problems.append(f"outputs differ from the first execution of seed {seed}: {diff}")
        result["behaviour"] = checks.behaviour(out, self.workload.kind)
        if self.workload.kind == "online":
            result["updates"] = len(checks.read_csv(out / "metrics.csv")[1])
            result["env_steps"] = self.config["online"]["env_step_budget"]
        else:
            result["updates"] = self.config["pretrain_steps"]
            result["env_steps"] = self.config["dataset_size"]
        if not self.runtime:
            self.runtime = {"numpy": result.get("numpy"), "blas": result.get("blas")}
        return problems

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def remember_digests(self, key_parts: dict) -> None:
        """Compare outputs with earlier benchmark runs of the same source, config and seed."""
        store_path = OUT / "digests.json"
        store = json.loads(store_path.read_text()) if store_path.is_file() else {}
        for seed, reference in sorted(self.references.items()):
            key = "/".join(f"{k}={v}" for k, v in {**key_parts, "seed": seed}.items())
            earlier = store.setdefault(key, reference)
            diff = checks.digest_mismatches(earlier, reference)
            if diff:
                self.failed += 1
                self.problems.append(f"seed {seed}: outputs differ from an earlier run "
                                     f"of this source: {diff}")
        tmp = store_path.with_name(store_path.name + ".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
        os.replace(tmp, store_path)


# ---------------------------------------------------------------------------
# metrics


def timed_metrics(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Run the workload on each of the run's seeds in turn for ``seconds``.

    Seeds differ in how much work they need (an online seed may replan 15 %
    more often than another), and the host's speed changes from second to
    second because other tenants share its cores. So the time metrics are
    the median time per model update over every execution, which is robust
    to slow stretches, times the mean number of updates over the run's
    seeds, which evens out the seeds. ``setup_s`` and ``peak_rss_mb`` are
    medians over every execution.
    """
    bench.spawn(bench.seed, setup_only=True)  # warm-up: byte-compiles and fills the file cache
    setups = [bench.spawn(bench.seed, setup_only=True)[0].get("setup_s")
              for _ in range(SETUP_PROBES)]
    runs: list[dict] = []
    durations: list[float] = []
    for turn in itertools.count():
        seed = bench.seeds[turn % len(bench.seeds)]
        begin = time.monotonic()
        result, problems = bench.spawn(seed)
        durations.append(time.monotonic() - begin)
        if not problems:
            runs.append(result)
        if bench.elapsed() > TIME_LIMIT_S:
            break
        if (turn + 1 >= MIN_ROUNDS * len(bench.seeds)
                and bench.elapsed() + statistics.median(durations) > seconds):
            break
    setups += [r["setup_s"] for r in runs]
    setups = [s for s in setups if s is not None]
    detail = {"seeds": bench.seeds, "executions": runs, "setup_samples": setups}
    updates = {r["seed"]: r["updates"] for r in runs}
    if sorted(updates) != bench.seeds:
        return {}, detail
    mean_updates = statistics.mean(updates.values())
    per_update = lambda key: statistics.median(r[key] / r["updates"] for r in runs)  # noqa: E731
    wall = mean_updates * per_update("wall_s")
    metrics = {
        "wall_s": wall,
        "cpu_s": mean_updates * per_update("cpu_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "env_steps_per_s": statistics.mean(r["env_steps"] for r in runs) / wall,
        "updates_per_s": 1.0 / per_update("wall_s"),
    }
    return metrics, detail


def traced_metrics(bench: Bench) -> tuple[dict, dict]:
    """One untraced and one traced execution: per-layer numbers and overhead."""
    plain, problems = bench.spawn(bench.seed)
    spans = OUT / f"spans-{bench.name}-seed{bench.seed}.csv.gz"
    traced, traced_problems = bench.spawn(bench.seed, spans=spans)
    detail = {"untraced": plain, "traced": traced, "spans_file": str(spans.relative_to(ROOT))}
    if problems or traced_problems:
        return {}, detail
    metrics = dict(traced["layers"])
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.overhead"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics["behaviour.score_last_quartile"] = traced["behaviour"].get("score_last_quartile", 0.0)
    metrics["behaviour.loss_last_quartile"] = traced["behaviour"]["loss_last_quartile"]
    return metrics, detail


# ---------------------------------------------------------------------------
# entry point


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long the timed repeats may take (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced execution")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    thread_env = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update({k: "1" for k in THREAD_VARS})
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "ebmplan" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no ebmplan sources under {SRC} or no {spec_path.name}; "
              "run from a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(exist_ok=True)

    shipped = SRC / "ebmplan" / "configs" / WORKLOADS[args.workload].shipped
    config_path = BENCH / "workloads" / f"{args.workload}.json"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": sha256_bytes(config_path.read_bytes()),
        "shipped_config": str(shipped.relative_to(ROOT)),
        "shipped_config_sha256": sha256_bytes(shipped.read_bytes()) if shipped.is_file() else None,
        "source_sha256": source_digest(),
        "machine": {**machine_record(), "thread_env": thread_env,
                    "thread_env_set": {k: "1" for k in THREAD_VARS}},
        "load_before": load_snapshot(),
    }
    started = time.monotonic()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        bench = Bench(args.workload, args.seed, Path(tmp), started)
        if args.trace:
            values, detail = traced_metrics(bench)
        else:
            values, detail = timed_metrics(bench, args.seconds)
        bench.remember_digests({
            "workload": args.workload,
            "config": record["config_sha256"][:16], "source": record["source_sha256"][:16],
        })
    record["load_after"] = load_snapshot()
    record["elapsed_s"] = time.monotonic() - started
    record["runtime"] = bench.runtime
    record["digests"] = {str(k): v for k, v in bench.references.items()}
    record["problems"] = bench.problems
    record.update(detail)

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing and not bench.problems:
        bench.problems.append(f"metrics not computed: {missing}")
    correct = not bench.problems
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in listed}
    record["metrics"] = values
    record["correct"] = correct
    suffix = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{suffix}.json").write_text(json.dumps(record, indent=1, default=str))

    for problem in bench.problems:
        print(f"FAILED {problem}")
    print(f"{args.workload} seed {args.seed}: {bench.attempted} executions, "
          f"{bench.failed} failed, load {record['load_before']['loadavg_1m']:.2f} -> "
          f"{record['load_after']['loadavg_1m']:.2f}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
