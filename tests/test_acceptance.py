"""Benchmark acceptance suite.

Each test implements one acceptance criterion at its stated tolerance, runs
the shipped experiment configs through the regular runner, and prints a
PASS/FAIL line with its runtime (use ``pytest -s`` to see them). Expensive
runs are cached at module scope and shared between criteria.
"""

import csv
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import ebmplan
from ebmplan.baselines import ActionFFModel, ff_mse_loss_and_grads
from ebmplan.energy import EnergyModel, contrastive_loss_and_grads, make_energy_model
from ebmplan.envs import make_env
from ebmplan.experiments import ExperimentConfig, run_experiment
from ebmplan.nn import backward, forward_cached, load_mlp, mlp_forward, mlp_init, save_mlp
from ebmplan.planner import PlannerConfig, SmoothNoiseGen, plan
from oracles import fd_param_grads, max_rel_error

CONFIG_DIR = Path(ebmplan.__file__).resolve().parent / "configs"

_RESULTS: dict[str, Path] = {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def run_config(name: str, workdir: Path) -> Path:
    """Run a shipped experiment config once and cache its output directory."""
    if name not in _RESULTS:
        config = ExperimentConfig.from_json(CONFIG_DIR / f"{name}.json")
        config.out_dir = str(workdir / name)
        _RESULTS[name] = run_experiment(config, quiet=True)
    return _RESULTS[name]


def read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def episode_scores_by_seed(out_dir: Path) -> dict[int, list[float]]:
    scores = defaultdict(list)
    for row in read_csv(out_dir / "episodes.csv"):
        scores[int(row["seed"])].append(float(row["score"]))
    return scores


def quartile_means(scores: list[float]) -> tuple[float, float]:
    q = max(1, len(scores) // 4)
    return float(np.mean(scores[:q])), float(np.mean(scores[-q:]))


def report(num: int, name: str, ok: bool, elapsed: float, budget: float, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status} in {elapsed:6.1f}s (budget {budget:.0f}s) "
          f"{name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def test_c01_gradient_suite():
    t0 = time.time()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # forward-pass gradients on a random small net
        widths = [int(rng.integers(2, 17)) for _ in range(int(rng.integers(1, 3)))]
        net = mlp_init([3, *widths, 1], rng)
        x = rng.normal(size=3)
        analytic, _ = backward(net, forward_cached(net, x[None])[1], np.ones(1)[None])
        numeric = fd_param_grads(lambda p: float(mlp_forward(p, x)[0]), net, h=1e-5)
        worst = max(worst, max_rel_error(analytic, numeric))
        # contrastive loss gradients
        model = make_energy_model(2, rng, (6, 6))
        pos = rng.normal(size=(3, 4))
        neg = rng.normal(size=(3, 4))
        _, grads = contrastive_loss_and_grads(model, pos, neg)
        numeric = fd_param_grads(
            lambda p: contrastive_loss_and_grads(EnergyModel(p), pos, neg)[0],
            model.net, h=1e-5,
        )
        worst = max(worst, max_rel_error(grads, numeric))
        # forward-model mse gradients
        ff = ActionFFModel(mlp_init([4, 6, 2], rng))
        s = rng.uniform(-1, 1, (3, 2))
        a = rng.uniform(-0.05, 0.05, (3, 2))
        s2 = rng.uniform(-1, 1, (3, 2))
        _, grads = ff_mse_loss_and_grads(ff, s, a, s2)
        numeric = fd_param_grads(
            lambda p: ff_mse_loss_and_grads(ActionFFModel(p), s, a, s2)[0],
            ff.net, h=1e-5,
        )
        worst = max(worst, max_rel_error(grads, numeric))
    elapsed = time.time() - t0
    report(1, "gradient suite", worst < 1e-4, elapsed, 10,
           f"max relative error {worst:.2e} over 20 seeded instances each")


def test_c02_mppi_oracle():
    t0 = time.time()
    model = EnergyModel(mlp_init([4, 1], np.random.default_rng(0)))
    for w in model.net.weights:
        w[:] = 0.0
    config = PlannerConfig(num_samples=1000, num_iterations=50, horizon=10,
                           noise_scale=0.2, goal_weight=1.0)
    start = np.array([-0.2, -0.1])
    goal = np.array([0.35, 0.2])
    errors = []
    for seed in range(4):
        traj = plan(model, start, goal, config, np.random.default_rng(seed))
        errors.append(float(np.linalg.norm(traj[-1] - goal)))
    elapsed = time.time() - t0
    report(2, "mppi quadratic oracle", all(e < 0.05 for e in errors), elapsed, 30,
           "final-state errors " + " ".join(f"{e:.4f}" for e in errors))


def test_c03_smooth_noise_covariance():
    t0 = time.time()
    gen = SmoothNoiseGen(8, 1)
    scale = 0.2
    draws = gen.sample(scale, np.random.default_rng(0), n=100_000)[:, :, 0]
    empirical = np.cov(draws.T, bias=True)
    expected = scale**2 * gen.covariance()
    rel = float(np.max(np.abs(empirical - expected) / np.abs(expected)))
    elapsed = time.time() - t0
    report(3, "smooth-noise covariance", rel < 0.10, elapsed, 10,
           f"max entrywise relative error {rel:.3f} over 1e5 draws")


def test_c04_online_ordering_vs_action_ff(workdir):
    t0 = time.time()
    details = []
    ok_all = True
    for env, ebm_cfg, ff_cfg in (
        ("particle", "online_particle", "online_particle_actionff"),
        ("maze", "online_maze", "online_maze_actionff"),
    ):
        ebm = episode_scores_by_seed(run_config(ebm_cfg, workdir))
        ff = episode_scores_by_seed(run_config(ff_cfg, workdir))
        wins = 0
        for seed in sorted(ebm):
            _, ebm_q4 = quartile_means(ebm[seed])
            _, ff_q4 = quartile_means(ff[seed])
            # both scores are negative: 3x better means ff <= 3 * ebm
            wins += ff_q4 <= 3.0 * ebm_q4
            details.append(f"{env} s{seed}: ebm {ebm_q4:.2f} ff {ff_q4:.2f}")
        ok_all &= wins >= 3
        details.append(f"{env} wins {wins}/4")
    elapsed = time.time() - t0
    report(4, "online score 3x ordering", ok_all, elapsed, 900, "; ".join(details))


def test_c05_learning_progress(workdir):
    t0 = time.time()
    details = []
    ok_all = True
    for env, cfg in (
        ("particle", "online_particle_progress"),
        ("maze", "online_maze"),
        ("reacher", "online_reacher"),
    ):
        scores = episode_scores_by_seed(run_config(cfg, workdir))
        wins = 0
        for seed in sorted(scores):
            q1, q4 = quartile_means(scores[seed])
            wins += q4 > q1
            details.append(f"{env} s{seed}: {q1:.2f}->{q4:.2f}")
        ok_all &= wins >= 3
        details.append(f"{env} wins {wins}/4")
    elapsed = time.time() - t0
    report(5, "learning progress", ok_all, elapsed, 1200, "; ".join(details))


def test_c06_correlated_data_ablation(workdir):
    t0 = time.time()
    rows = read_csv(run_config("comparison_particle", workdir) / "ablation.csv")
    means: dict = defaultdict(list)
    for row in rows:
        means[(int(row["seed"]), row["model"], row["mode"])].append(float(row["score"]))
    seeds = sorted({int(r["seed"]) for r in rows})
    wins = 0
    details = []
    for seed in seeds:
        drop_ebm = np.mean(means[(seed, "ebm", "shuffled")]) - np.mean(
            means[(seed, "ebm", "sequential-repeated")]
        )
        drop_ff = np.mean(means[(seed, "action-ff", "shuffled")]) - np.mean(
            means[(seed, "action-ff", "sequential-repeated")]
        )
        wins += drop_ff > drop_ebm
        details.append(f"s{seed}: ebm drop {drop_ebm:.2f}, ff drop {drop_ff:.2f}")
    elapsed = time.time() - t0
    report(6, "correlated-data ablation", wins >= 3, elapsed, 900,
           f"wins {wins}/{len(seeds)}; " + "; ".join(details))


def test_c07_obstacle_generalization(workdir):
    t0 = time.time()
    rows = read_csv(run_config("comparison_particle", workdir) / "obstacle.csv")
    means: dict = defaultdict(list)
    for row in rows:
        means[(int(row["seed"]), row["model"], row["condition"])].append(float(row["score"]))
    seeds = sorted({int(r["seed"]) for r in rows})
    wins = 0
    open_ebm, open_ff = [], []
    details = []
    for seed in seeds:
        eb = np.mean(means[(seed, "ebm", "obstacle")])
        fb = np.mean(means[(seed, "action-ff", "obstacle")])
        wins += eb > fb
        open_ebm.append(np.mean(means[(seed, "ebm", "open")]))
        open_ff.append(np.mean(means[(seed, "action-ff", "open")]))
        details.append(f"s{seed}: obst ebm {eb:.2f} ff {fb:.2f}")
    mean_e, mean_f = float(np.mean(open_ebm)), float(np.mean(open_ff))
    gap = abs(mean_e - mean_f) / max(abs(mean_e), abs(mean_f))
    ok = wins >= 3 and gap <= 0.25
    elapsed = time.time() - t0
    report(7, "obstacle generalization", ok, elapsed, 600,
           f"obstacle wins {wins}/{len(seeds)}; open means ebm {mean_e:.2f} "
           f"ff {mean_f:.2f} (gap {100 * gap:.1f}%); " + "; ".join(details))


def test_c08_goal_free_exploration(workdir):
    t0 = time.time()
    ebm_dir = run_config("explore_maze_ebm", workdir)
    rnd_dir = run_config("explore_maze_random", workdir)

    def final_occupancy(out_dir):
        occ: dict[int, int] = {}
        for row in read_csv(out_dir / "explore.csv"):
            occ[int(row["seed"])] = int(row["occupancy"])
        return occ

    ebm, rnd = final_occupancy(ebm_dir), final_occupancy(rnd_dir)
    wins = 0
    details = []
    for seed in sorted(ebm):
        wins += ebm[seed] >= 2 * rnd[seed]
        details.append(f"s{seed}: ebm {ebm[seed]} rnd {rnd[seed]}")
    elapsed = time.time() - t0
    report(8, "goal-free exploration", wins >= 3, elapsed, 600,
           f"wins {wins}/{len(ebm)}; " + "; ".join(details))


def test_c09_plan_diversity(workdir):
    t0 = time.time()
    rows = read_csv(run_config("diversity_particle", workdir) / "diversity.csv")
    spreads = defaultdict(list)
    for row in rows:
        spreads[int(row["horizon"])].append(float(row["spread"]))
    medians = {h: float(np.median(v)) for h, v in spreads.items()}
    horizons = sorted(medians)
    ok = all(medians[a] < medians[b] for a, b in zip(horizons, horizons[1:]))
    elapsed = time.time() - t0
    report(9, "plan diversity vs horizon", ok, elapsed, 300,
           " ".join(f"T{h}={medians[h]:.4f}" for h in horizons))


def test_c10_determinism_and_round_trips(workdir, tmp_path):
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    from test_cli import run_twice_and_compare, tiny_configs

    t0 = time.time()
    # bit-identical CSV output for every subcommand under a fixed seed
    for command, config in tiny_configs(tmp_path).items():
        run_twice_and_compare(tmp_path, command, config)

    # checkpoint save/load bit-exact round trip
    net = mlp_init([4, 32, 32, 1], np.random.default_rng(3))
    path = tmp_path / "roundtrip.npz"
    save_mlp(net, path)
    loaded = load_mlp(path)
    for a, b in zip(loaded.weights + loaded.biases, net.weights + net.biases):
        assert np.array_equal(a, b)

    # inverse-dynamics round trip on 1e4 random feasible transitions per env
    for kind in ("particle", "maze", "reacher"):
        spec = make_env(kind)
        rng = np.random.default_rng(11)
        count = 0
        while count < 10_000:
            if kind == "reacher":
                state = np.concatenate(
                    [rng.uniform(-np.pi, np.pi, 2), rng.uniform(-1, 1, 2)]
                )
                action = rng.uniform(-1, 1, 2)
            else:
                state = rng.uniform(-0.99, 0.99, 2)
                if kind == "maze" and not spec.maze_layout.admissible(state):
                    continue
                action = rng.normal(0.0, 0.05, 2)
            nxt = spec.step(state, action)
            replay = spec.step(state, spec.inverse_dynamics(state, nxt))
            tol = 1e-10 if kind == "reacher" else 1e-14
            assert np.allclose(replay, nxt, rtol=0, atol=tol)
            count += 1
    elapsed = time.time() - t0
    report(10, "determinism and round trips", True, elapsed, 600,
           "all subcommands bit-identical; checkpoint and inverse dynamics exact")
