import contextlib
import io
import json
import re
import struct
import tempfile
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ebmplan import experiments
from ebmplan.baselines import make_action_ff
from ebmplan.cli import main
from ebmplan.energy import make_energy_model
from ebmplan.experiments import EXPERIMENT_KINDS, KIND_KEYS, ExperimentConfig
from ebmplan.nn import save_mlp
from ebmplan.online import OnlineConfig
from ebmplan.planner import SCORE_MODES, PlannerConfig

TINY_PLANNER = {"num_samples": 8, "num_iterations": 2, "horizon": 6, "noise_scale": 0.01}
CONFIG_DIR = Path(__file__).resolve().parents[1] / "src" / "ebmplan" / "configs"
# the run-length fields of the shipped configs, cut; online.env_step_budget too
SHORT_RUN = {"dataset_size": 60, "pretrain_steps": 3, "episodes": 1, "episode_length": 3,
             "trials": 2, "resolution": 8}


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def tiny_configs(tmp_path):
    """One small config per subcommand, fast enough to run twice."""
    checkpoint = tmp_path / "model.npz"
    save_mlp(make_energy_model(2, np.random.default_rng(0), (8, 8)).net, checkpoint)
    return {
        "online": {
            "kind": "online",
            "env": "particle",
            "env_options": {"start": [-0.3, -0.2]},
            "goal": [-0.1, 0.0],
            "seeds": [0, 1],
            "planner": TINY_PLANNER,
            "hidden_sizes": [8, 8],
            "online": {"env_step_budget": 12, "episode_length": 6},
        },
        "pretrain": {
            "kind": "pretrain",
            "env": "particle",
            "model": "ebm",
            "seeds": [0],
            "hidden_sizes": [8, 8],
            "dataset_size": 40,
            "pretrain_steps": 5,
            "pretrain_batch": 8,
        },
        "eval": {
            "kind": "eval",
            "env": "particle",
            "env_options": {"start": [-0.3, -0.2]},
            "goal": [-0.1, 0.0],
            "seeds": [3],
            "planner": TINY_PLANNER,
            "episodes": 2,
            "episode_length": 5,
            "model_checkpoint": str(checkpoint),
        },
        "explore": {
            "kind": "explore",
            "env": "maze",
            "explore_policy": "random",
            "seeds": [0, 1],
            "online": {"env_step_budget": 30},
        },
        "comparison": {
            "kind": "comparison",
            "env": "particle",
            "env_options": {"start": [-0.4, 0.0]},
            "goal": [0.4, 0.0],
            "seeds": [0],
            "planner": TINY_PLANNER,
            "hidden_sizes": [8, 8],
            "dataset_size": 30,
            "pretrain_steps": 4,
            "pretrain_batch": 8,
            "repeat_factor": 2,
            "episodes": 1,
            "episode_length": 4,
        },
        "diversity": {
            "kind": "diversity",
            "env": "particle",
            "goal": [0.2, 0.0],
            "seeds": [0],
            "planner": TINY_PLANNER,
            "hidden_sizes": [8, 8],
            "horizons": [4, 6],
            "trials": 3,
        },
        "heatmap": {
            "kind": "heatmap",
            "env": "particle",
            "seeds": [0],
            "hidden_sizes": [8, 8],
            "resolution": 6,
        },
    }


def shipped_runs(seeds):
    """(run name, config) for every shipped config cut to a short run on ``seeds``.

    A heatmap renders one seed, so it runs once per seed. An action-FF eval of
    the shortened action-FF pretraining follows ``eval_particle``. Runs that
    load a checkpoint come last: run them all from one working directory.
    """
    runs = []
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = json.loads(path.read_text())
        config.update({key: value for key, value in SHORT_RUN.items() if key in config})
        if "online" in config:
            config["online"] = {**config["online"], "env_step_budget": 10}
        if config["kind"] == "heatmap":
            runs += [(f"{path.stem}-seed{seed}",
                      {**config, "seeds": [seed], "out_dir": f"{config['out_dir']}-seed{seed}"})
                     for seed in seeds]
            continue
        runs.append((path.stem, {**config, "seeds": list(seeds)}))
        if path.stem == "eval_particle":
            checkpoint = "results/pretrain_particle_actionff/model_action-ff_seed0.npz"
            runs.append((f"{path.stem}-actionff",
                         {**runs[-1][1], "model": "action-ff", "model_checkpoint": checkpoint,
                          "out_dir": f"{config['out_dir']}_actionff"}))
    return sorted(runs, key=lambda run: "model_checkpoint" in run[1])


def run_twice_and_compare(tmp_path, command, config):
    out_a = tmp_path / f"{command}-a"
    out_b = tmp_path / f"{command}-b"
    cfg_path = write_config(tmp_path, f"{command}.json", config)
    assert main([command, "--config", cfg_path, "--out", str(out_a), "--quiet"]) == 0
    assert main([command, "--config", cfg_path, "--out", str(out_b), "--quiet"]) == 0
    files_a = sorted(p.name for p in out_a.iterdir())
    files_b = sorted(p.name for p in out_b.iterdir())
    assert files_a == files_b and files_a
    for name in files_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    return out_a


def test_every_subcommand_runs_and_is_bit_reproducible(tmp_path):
    for command, config in tiny_configs(tmp_path).items():
        out = run_twice_and_compare(tmp_path, command, config)
        assert any(p.suffix == ".csv" for p in out.iterdir())


def test_online_csv_schema_and_seed_override(tmp_path):
    config = tiny_configs(tmp_path)["online"]
    cfg_path = write_config(tmp_path, "online.json", config)
    out = tmp_path / "out-online"
    assert main(["online", "--config", cfg_path, "--out", str(out), "--quiet",
                 "--seed", "5"]) == 0
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == "seed,step,episode,score,loss,executed,occupancy"
    assert all(line.startswith("5,") for line in lines[1:])
    episodes = (out / "episodes.csv").read_text().splitlines()
    assert episodes[0] == "seed,episode,score"


def test_heatmap_emits_svg(tmp_path):
    config = tiny_configs(tmp_path)["heatmap"]
    cfg_path = write_config(tmp_path, "heatmap.json", config)
    out = tmp_path / "out-heatmap"
    assert main(["heatmap", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    svg = (out / "heatmap.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    rows = (out / "heatmap.csv").read_text().splitlines()
    assert len(rows) == 1 + config["resolution"]
    assert len(rows[1].split(",")) == config["resolution"]


def test_mismatched_subcommand_exits_with_diagnostic(tmp_path, capsys):
    config = tiny_configs(tmp_path)["online"]
    cfg_path = write_config(tmp_path, "online.json", config)
    assert main(["explore", "--config", cfg_path, "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_file_exits_nonzero(tmp_path, capsys):
    assert main(["online", "--config", str(tmp_path / "nope.json"), "--quiet"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_nonzero(tmp_path, capsys):
    # (config entries, a word the diagnostic must contain)
    bad_configs = [
        ({"bogus": 1}, "bogus"),
        ({"online": {"bogus": 1}}, "online"),
        ({"planner": {"bogus": 1}}, "planner"),
        ({"planner": {"noise_decay": 0.92}}, "planner.noise_decay"),
        ({"planner": {"noise_scale": "0.01"}}, "planner"),
        ({"online": {"env_step_budget": "12"}}, "online"),
        ({"episodes": "3"}, "episodes"),
        ({"hidden_sizes": "ab"}, "hidden_sizes"),
        ({"planner": 3}, "planner"),
        ({"online": {"adam": "fast"}}, "online.adam"),
        # the network, optimizer and planner are set at the top level only
        ({"online": {"adam": {"learning_rate": 0.001}}}, "online.adam"),
        ({"online": {"learning_rate": 0.001}}, "online.learning_rate: set by the top level"),
        ({"env_options": 3}, "env_options"),
        ({"seeds": "0"}, "seeds"),
        ({"goal": "near"}, "goal"),
        ({"env_options": {"start": "x"}}, "'x'"),
        ({"env_options": {"bogus": 1}}, "env_options"),
        ({"env_options": {"walls": [[0.0, 0.0, 0.1, 0.1]]}}, "env_options"),
        ({"env": "maze", "env_options": {"walls": [[0.0, 0.0]]}}, "env_options"),
        ({"env": "maze", "env_options": {"walls": [[0.3, 0.3, 0.2, 0.4]]}},
         "env_options: degenerate wall"),
        ({"env": "maze", "env_options": {"walls": [[0.9, 0.0, 1.1, 0.1]]}},
         "env_options: wall (0.9, 0.0, 1.1, 0.1) extends beyond the map"),
        # env_options keys are checked at load, so a key holding a newline still
        # gets one line, and no factory parameter is reachable from a config
        ({"env_options": {"bad\nkey": 1}}, "env_options.bad"),
        ({"env": "maze", "env_options": {"layout": [[0.0, 0.0, 0.1, 0.1]]}},
         "['env_options.layout']"),
        ({"seeds": [0, 0]}, "distinct"),
        ({"seeds": [0, -1]}, "non-negative"),
        # a heatmap renders seeds[0] only
        ({"kind": "heatmap", "seeds": [0, 1]}, "one seed"),
        # configs that ask for no work
        ({"kind": "pretrain", "pretrain_steps": 0}, "pretrain_steps"),
        ({"kind": "comparison", "pretrain_steps": 0}, "pretrain_steps"),
        ({"online": {"env_step_budget": 0}}, "env_step_budget"),
        ({"kind": "diversity", "horizons": []}, "horizons"),
        # explore takes its run length and cell size from online, like an online run
        ({"kind": "explore", "budget": 12}, "budget"),
        ({"kind": "explore", "cell_size": 0.1}, "cell_size"),
        ({"kind": "explore", "explore_policy": "random", "online": {"env_step_budget": 0}},
         "env_step_budget"),
        # no setting is overridden: ebm-prior explores goal-free only when told so
        ({"kind": "explore", "explore_policy": "ebm-prior",
          "planner": {"score_mode": "gaussian-goal"}}, "prior-only"),
        # values a runner would crash on
        ({"hidden_sizes": [0, 8]}, "hidden_sizes"),
        ({"kind": "pretrain", "hidden_sizes": [0, 8]}, "hidden_sizes"),
        ({"kind": "heatmap", "hidden_sizes": [8, -1]}, "hidden_sizes"),
        ({"online": {"hidden_sizes": [0]}}, "online.hidden_sizes"),
        ({"kind": "explore", "online": {"hidden_sizes": [0]}}, "online.hidden_sizes"),
        ({"kind": "pretrain", "dataset_reset_every": 0}, "dataset_reset_every"),
        ({"kind": "comparison", "dataset_reset_every": 0}, "dataset_reset_every"),
        ({"kind": "comparison", "repeat_factor": 0}, "repeat_factor"),
        ({"kind": "explore", "env": "maze", "env_options": {"start": []}}, "start"),
        ({"kind": "explore", "env": "maze", "env_options": {"start": [0]}}, "start"),
        ({"kind": "comparison", "env_options": {"start": [0]}}, "start"),
        ({"env_options": {"start": [0.1, float("nan")]}}, "start"),
        ({"goal": [float("nan"), 0.0]}, "goal"),
        ({"learning_rate": 10**400}, "learning_rate"),
        ({"kind": "eval", "episodes": 0, "model_checkpoint": "model.npz"}, "episodes"),
        ({"kind": "comparison", "episodes": 0}, "episodes"),
        # every limit a kind reads is checked at load, not after a run has done work
        *[({"kind": "eval", "episode_length": n, "model_checkpoint": "model.npz"},
           "episode_length must be >= 1") for n in (0, -3)],
        *[({"kind": "comparison", "episode_length": n}, "episode_length must be >= 1")
          for n in (0, -3)],
        *[({"kind": "comparison", "ff_learning_rate": v}, "ff_learning_rate must be positive")
          for v in (0.0, -0.003)],
        ({"learning_rate": 0.0}, "error: learning_rate must be positive"),
        # a section's own limits name the key by its dotted path
        ({"online": {"episode_length": 0}}, "online.episode_length must be >= 1"),
        ({"planner": {"num_samples": 0}}, "planner.num_samples must be >= 1"),
        ({"kind": "pretrain", "dataset_size": 0}, "dataset_size must be >= 1"),
        ({"kind": "comparison", "dataset_size": 0}, "dataset_size must be >= 1"),
        ({"kind": "pretrain", "pretrain_batch": 0}, "pretrain_batch must be >= 1"),
        ({"kind": "heatmap", "resolution": 0}, "resolution must be >= 1"),
        ({"kind": "pretrain", "negative_scale": -0.1}, "negative_scale must be non-negative"),
        ({"kind": "diversity", "trials": 1}, "trials must be >= 2"),
        # no planner mode that nothing plans in
        ({"planner": {"score_mode": "fixed-goal"}}, "planner.score_mode must be one of"),
        # kinds that read an energy network, given an action-FF checkpoint
        ({"kind": "heatmap", "model": "action-ff", "model_checkpoint": "ff.npz"}, "'ebm'"),
        ({"kind": "diversity", "model": "action-ff", "model_checkpoint": "ff.npz"}, "'ebm'"),
        ({"kind": "explore", "model": "action-ff"}, "'ebm'"),
        # the comparison kind's blocked map, with its fixed wall, is built at load
        ({"kind": "comparison", "env_options": {"start": [0.3, 0.0]}},
         "env_options.start: start state lies inside a wall"),
        # the goal tolerance, the occupancy cell and the comparison's wall are
        # constants, not keys
        ({"online": {"goal_tolerance": 0.05}}, "['online.goal_tolerance']"),
        ({"kind": "explore", "online": {"occupancy_cell": 0.1}}, "['online.occupancy_cell']"),
        ({"kind": "comparison", "obstacle": [0.28, -0.22, 0.38, 0.26]}, "['obstacle']"),
        # a key that the kind never reads is not silently ignored: a checkpoint
        # it would not load, or a setting of another kind
        ({"model_checkpoint": "nope.npz"}, "model_checkpoint: experiment 'online'"),
        ({"kind": "comparison", "model_checkpoint": "nope.npz"},
         "model_checkpoint: experiment 'comparison'"),
        ({"trials": 16}, "trials: experiment 'online' does not read it"),
        ({"resolution": 40}, "resolution: experiment 'online' does not read it"),
        ({"pretrain_steps": 3000}, "pretrain_steps: experiment 'online' does not read it"),
        ({"explore_policy": "random"}, "explore_policy: experiment 'online' does not read it"),
        # nor a key that the explore policy never reads
        *[({"kind": "explore", "explore_policy": "random", **extra},
           f"{key}: explore policy 'random' does not read it")
          for key, extra in [
              ("planner", {"planner": {"num_samples": 8}}),
              ("hidden_sizes", {"hidden_sizes": [8]}),
              ("learning_rate", {"learning_rate": 0.01}),
              ("online.deviation_threshold", {"online": {"deviation_threshold": 0.1}}),
              ("online.batch_size", {"online": {"batch_size": 8}}),
              ("online.buffer_capacity", {"online": {"buffer_capacity": 100}}),
          ]],
    ]
    for i, (extra, word) in enumerate(bad_configs):
        config = {"kind": "online", **extra}
        if "goal" in KIND_KEYS[config["kind"]]:
            config.setdefault("goal", [0.0, 0.0])
        cfg_path = write_config(tmp_path, f"bad{i}.json", config)
        out = tmp_path / f"out{i}"
        assert main([config["kind"], "--config", cfg_path, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and word in err, err
        # rejected while loading, before any output is written
        assert not out.exists()


@pytest.mark.parametrize("text", ["[]", "42", "null", "[1, 2]", '"online"'])
def test_config_that_is_not_an_object_exits_2_with_one_line(text, tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["online", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: config: expected an object, got ") and err.count("\n") == 1, err
    assert not out.exists()


def test_every_shipped_config_runs_shortened(tmp_path, monkeypatch):
    # one working directory, so eval_particle.json loads the checkpoint that the
    # shortened pretrain_particle_ebm.json writes under its own out_dir
    monkeypatch.chdir(tmp_path)
    for name, config in shipped_runs([0]):
        cfg_path = write_config(tmp_path, f"{name}.json", config)
        assert main([config["kind"], "--config", cfg_path, "--quiet"]) == 0, name
        assert any(p.suffix == ".csv" for p in Path(config["out_dir"]).iterdir()), name


def test_seed_override_is_checked_at_load(tmp_path, capsys):
    cfg_path = write_config(tmp_path, "online.json", tiny_configs(tmp_path)["online"])
    out = tmp_path / "out"
    args = ["online", "--config", cfg_path, "--seed", "-1", "--out", str(out), "--quiet"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "non-negative" in err, err
    assert not out.exists()


def test_eval_requires_checkpoint(tmp_path, capsys):
    config = tiny_configs(tmp_path)["eval"]
    config.pop("model_checkpoint")
    cfg_path = write_config(tmp_path, "eval.json", config)
    out = tmp_path / "out-eval"
    assert main(["eval", "--config", cfg_path, "--out", str(out), "--quiet"]) == 2
    assert "model_checkpoint" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "diversity"])
def test_missing_checkpoint_exits_2_before_any_seed(command, tmp_path, capsys, monkeypatch):
    # the checkpoint is read once, before the seed loop, and the line names its key
    seeds_run = []
    monkeypatch.setitem(experiments._SEED_RUNNERS, command,
                        lambda config, spec, seed, model_of: seeds_run.append(seed))
    missing = str(tmp_path / "missing.npz")
    config = {**tiny_configs(tmp_path)[command], "seeds": [0, 1], "model_checkpoint": missing}
    cfg_path = write_config(tmp_path, f"{command}-missing.json", config)
    out = tmp_path / f"out-{command}"
    assert main([command, "--config", cfg_path, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: model_checkpoint: {missing}: no such file\n"
    assert seeds_run == []
    assert not out.exists()


def write_bad_checkpoint(path, kind):
    # a file at ``path`` that some check of the checkpoint load must reject
    rng = np.random.default_rng(0)
    if kind in ("other-kind", "ebm-under-action-ff"):
        net = (make_action_ff(2, 2, rng, (8,)) if kind == "other-kind"
               else make_energy_model(2, rng, (8,))).net
        save_mlp(net, path)
    elif kind == "text":
        path.write_text("not a checkpoint\n")
    elif kind == "corrupt-zip":
        path.write_bytes(b"PK\x03\x04garbage")
    elif kind == "corrupt-member":
        # a deflated archive whose first member starts with an invalid block type
        np.savez_compressed(path, version=np.array(1))
        data = bytearray(path.read_bytes())
        name_len, extra_len = struct.unpack("<HH", data[26:30])
        start = 30 + name_len + extra_len
        data[start:start + 8] = b"\xff" * 8
        path.write_bytes(bytes(data))
    elif kind == "missing-keys":
        np.savez(path, weights=np.zeros(3))
    elif kind == "other-env":
        save_mlp(make_energy_model(4, rng, (8, 8)).net, path)
    elif kind == "other-form":
        # today's format, but with a linear hidden layer, a form no net runs in
        net = make_energy_model(2, rng, (8,)).net
        layers = {f"{name}{i}": arrays[i] for i in range(net.num_layers)
                  for name, arrays in (("w", net.weights), ("b", net.biases))}
        np.savez(path, version=np.array(1), num_layers=np.array(net.num_layers),
                 activations=np.array(["identity", "identity"]), **layers)


# kind of bad checkpoint -> (the config's model, the start of the reason given)
BAD_CHECKPOINTS = {
    "other-kind": ("ebm", "an energy network maps 2 * state_dim inputs to 1 output, not 4 to 2"),
    "ebm-under-action-ff": ("action-ff", "the net's state_dim is 1, env 'particle' has 2"),
    "text": ("ebm", "not an .npz archive"),
    "corrupt-zip": ("ebm", "not an .npz archive"),
    "corrupt-member": ("ebm", "not a checkpoint: "),
    "missing-keys": ("ebm", "not a checkpoint: "),
    "other-env": ("ebm", "the net's state_dim is 4, env 'particle' has 2"),
    "other-form": ("ebm", "activations ['identity', 'identity'] are not ['tanh', 'identity']"),
}


@pytest.mark.parametrize("kind", BAD_CHECKPOINTS)
def test_bad_checkpoint_exits_2_naming_key_and_path(kind, tmp_path, capsys):
    model, reason = BAD_CHECKPOINTS[kind]
    path = tmp_path / f"{kind}.npz"
    write_bad_checkpoint(path, kind)
    config = {**tiny_configs(tmp_path)["eval"], "model": model, "model_checkpoint": str(path)}
    cfg_path = write_config(tmp_path, "eval-bad.json", config)
    out = tmp_path / "out-eval"
    assert main(["eval", "--config", cfg_path, "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model_checkpoint: {path}: {reason}"), err
    assert err.count("\n") == 1
    assert not out.exists()


def test_runner_rejections_leave_no_out_dir(tmp_path, capsys):
    configs = tiny_configs(tmp_path)
    comparison_on_reacher = {**configs["comparison"], "env": "reacher", "env_options": {}}
    # (command, config a runner rejects after loading, a word the diagnostic must contain)
    cases = [
        ("online", {**configs["online"], "goal": [0.0, 0.0, 0.0]}, "goal"),
        ("explore", {**configs["explore"], "explore_policy": "bogus"}, "bogus"),
        ("comparison", comparison_on_reacher, "particle"),
        # diverging runs: numpy's overflow warning or the divergence guard ends them
        ("pretrain", {**configs["pretrain"], "learning_rate": 1e200}, "numerical blow-up"),
        ("pretrain", {**configs["pretrain"], "learning_rate": 1e6}, "numerical blow-up"),
        ("online", {**configs["online"], "learning_rate": 1e6}, "numerical blow-up"),
        ("online", {**configs["online"], "model": "action-ff", "learning_rate": 1e6},
         "numerical blow-up"),
    ]
    for i, (command, config, word) in enumerate(cases):
        cfg_path = write_config(tmp_path, f"rejected{i}.json", config)
        out = tmp_path / f"out{i}"
        assert main([command, "--config", cfg_path, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and word in err, err
        assert not out.exists()


def test_comparison_open_rows_are_the_shuffled_ablation_rows(tmp_path):
    # one pretraining per model and mode: obstacle.csv's open rows are the
    # shuffled models' open-map rows of ablation.csv
    config = {**tiny_configs(tmp_path)["comparison"], "seeds": [0, 1]}
    cfg_path = write_config(tmp_path, "comparison.json", config)
    out = tmp_path / "out-comparison"
    assert main(["comparison", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
    tables = {}
    for name in ("obstacle", "ablation"):
        lines = (out / f"{name}.csv").read_text().splitlines()[1:]
        tables[name] = [line.split(",") for line in lines]
        assert len(tables[name]) == len(config["seeds"]) * 2 * 2 * config["episodes"]
    open_rows = [row[:2] + row[3:] for row in tables["obstacle"] if row[2] == "open"]
    shuffled_rows = [row[:2] + row[3:] for row in tables["ablation"] if row[2] == "shuffled"]
    assert open_rows == shuffled_rows and len(open_rows) == len(tables["obstacle"]) // 2


def test_diversity_runs_in_every_score_mode(tmp_path):
    base = tiny_configs(tmp_path)["diversity"]
    for mode in SCORE_MODES:
        config = {**base, "planner": {**base["planner"], "score_mode": mode}}
        cfg_path = write_config(tmp_path, f"diversity-{mode}.json", config)
        out = tmp_path / f"out-{mode}"
        assert main(["diversity", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
        assert len((out / "diversity.csv").read_text().splitlines()) == 1 + len(
            config["horizons"]
        )


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=4, unique=True))
def test_multi_seed_rows_are_single_seed_rows_in_seed_order(seeds):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tiny_configs(tmp)["eval"]

        def eval_lines(seed_list, name):
            cfg_path = write_config(tmp, f"{name}.json", {**config, "seeds": seed_list})
            out = tmp / name
            assert main(["eval", "--config", cfg_path, "--out", str(out), "--quiet"]) == 0
            return (out / "eval.csv").read_text().splitlines()

        merged = eval_lines(seeds, "merged")
        singles = [eval_lines([seed], f"seed{seed}") for seed in sorted(seeds)]
        assert merged == singles[0][:1] + [line for lines in singles for line in lines[1:]]


def test_shipped_configs_parse():
    from ebmplan.experiments import ExperimentConfig

    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "ebmplan" / "configs").glob("*.json"))
    assert paths, "no shipped configs found"
    kinds, checkpoints, written = set(), {}, {}
    for path in paths:
        config = ExperimentConfig.from_json(path)
        assert config.seeds
        kinds.add(config.kind)
        if config.model_checkpoint is not None:
            checkpoints[config.model_checkpoint] = config.model
        if config.kind in ("pretrain", "online"):
            for seed in config.seeds:
                written[f"{config.out_dir}/model_{config.model}_seed{seed}.npz"] = config.model
    # every shipped checkpoint is one that a shipped pretrain or online config
    # writes, with the same model kind, relative to the same working directory
    assert checkpoints
    for checkpoint, model in checkpoints.items():
        assert written.get(checkpoint) == model, checkpoint
    # every kind ships a config, and the README's subcommand list is the kind list
    assert kinds == set(EXPERIMENT_KINDS)
    sentence = (root / "README.md").read_text().split("Subcommands:", 1)[1].split(".", 1)[0]
    assert re.findall(r"`([^`]+)`", sentence) == list(EXPERIMENT_KINDS)


# a bounded arbitrary JSON value; json.dumps writes NaN and Infinity, which
# json.load reads back
SMALL_INTS = st.integers(-2, 4)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | SMALL_INTS | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=3,
)


def _default(f):
    return f.default_factory() if f.default_factory is not MISSING else f.default


# (path into the config, the field's default) for every field a config can set
FUZZ_FIELDS = (
    [((f.name,), _default(f)) for f in fields(ExperimentConfig)]
    + [(("planner", f.name), _default(f)) for f in fields(PlannerConfig)]
    + [(("online", f.name), _default(f)) for f in fields(OnlineConfig)]
    + [(("env_options", "start"), [0.0, 0.0])]
)


def values_for(default):
    """Arbitrary JSON, or as often a value of the same JSON type as ``default``.

    Most fields reject a value of another type at load already; values of the
    right type reach the limits a run relies on.
    """
    if isinstance(default, bool) or not isinstance(default, (int, float, list, tuple)):
        return JSON_VALUES
    if isinstance(default, (list, tuple)):
        return JSON_VALUES | st.lists(SMALL_INTS | st.floats(), max_size=3)
    return JSON_VALUES | (SMALL_INTS if isinstance(default, int) else st.floats())


REPLACEMENTS = st.sampled_from(FUZZ_FIELDS).flatmap(
    lambda field: st.tuples(st.just(field[0]), values_for(field[1]))
)


def run_with_field(tmp_path, command, config, path, value):
    """Run ``command`` on ``config`` with the field at ``path`` set to ``value``.

    Returns the exit code, what reached stderr (warnings included, one line
    each) and whether the output directory exists.
    """
    config = dict(config)
    if len(path) == 2:
        config[path[0]] = {**config.get(path[0], {}), path[1]: value}
    else:
        config[path[0]] = value
    cfg_path = write_config(tmp_path, f"fuzz-{command}.json", config)
    out = tmp_path / f"out-fuzz-{command}"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", cfg_path, "--out", str(out), "--quiet"])
    lines = err.getvalue() + "".join(f"warning: {w.message}\n" for w in caught)
    return code, lines, out.exists()


# no shrinking: each example runs every kind, so shrinking one takes minutes;
# the assertion names the kind, and the example gives its field and value
@settings(max_examples=150, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.fixed_dictionaries({command: REPLACEMENTS for command in EXPERIMENT_KINDS}))
def test_any_one_field_value_exits_0_or_2_with_one_line(replacements):
    # one (field path, value) replacement for each kind's config
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for command, config in tiny_configs(tmp).items():
            path, value = replacements[command]
            code, err, out_exists = run_with_field(tmp, command, config, path, value)
            assert code in (0, 2), command
            if code == 2:
                assert err.startswith("error:") and err.count("\n") == 1, (command, err)
                assert not out_exists, command
