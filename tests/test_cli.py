import contextlib
import io
import json
import tempfile
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from ebmplan.cli import main
from ebmplan.energy import make_energy_model
from ebmplan.experiments import EXPERIMENT_KINDS, ExperimentConfig
from ebmplan.nn import save_mlp
from ebmplan.online import OnlineConfig
from ebmplan.planner import SCORE_MODES, PlannerConfig

TINY_PLANNER = {"num_samples": 8, "num_iterations": 2, "horizon": 6, "noise_scale": 0.01}


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
            "budget": 30,
            "cell_size": 0.1,
        },
        "obstacle-gen": {
            "kind": "obstacle-gen",
            "env": "particle",
            "env_options": {"start": [-0.4, 0.0]},
            "goal": [0.4, 0.0],
            "seeds": [0],
            "planner": TINY_PLANNER,
            "hidden_sizes": [8, 8],
            "dataset_size": 30,
            "pretrain_steps": 4,
            "pretrain_batch": 8,
            "episodes": 1,
            "episode_length": 4,
        },
        "ablation-correlated": {
            "kind": "ablation-correlated",
            "env": "particle",
            "goal": [0.2, 0.2],
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
        ({"planner": {"noise_scale": "0.01"}}, "planner"),
        ({"online": {"env_step_budget": "12"}}, "online"),
        ({"online": {"goal_tolerance": "0.05"}}, "online.goal_tolerance"),
        ({"episodes": "3"}, "episodes"),
        ({"hidden_sizes": "ab"}, "hidden_sizes"),
        ({"planner": 3}, "planner"),
        ({"online": {"adam": "fast"}}, "online.adam"),
        ({"env_options": 3}, "env_options"),
        ({"seeds": "0"}, "seeds"),
        ({"goal": "near"}, "goal"),
        ({"env_options": {"start": "x"}}, "'x'"),
        ({"env_options": {"bogus": 1}}, "env_options"),
        ({"env_options": {"walls": [[0.0, 0.0, 0.1, 0.1]]}}, "env_options"),
        ({"env": "maze", "env_options": {"walls": [[0.0, 0.0]]}}, "env_options"),
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
        ({"kind": "obstacle-gen", "pretrain_steps": 0}, "pretrain_steps"),
        ({"kind": "ablation-correlated", "pretrain_steps": 0}, "pretrain_steps"),
        ({"online": {"env_step_budget": 0}}, "env_step_budget"),
        ({"kind": "diversity", "horizons": []}, "horizons"),
        # explore sets these from budget and cell_size
        ({"kind": "explore", "online": {"env_step_budget": 3}, "budget": 12}, "budget"),
        ({"kind": "explore", "online": {"occupancy_cell": 0.2}}, "cell_size"),
        # values a runner would crash on
        ({"hidden_sizes": [0, 8]}, "hidden_sizes"),
        ({"kind": "pretrain", "hidden_sizes": [0, 8]}, "hidden_sizes"),
        ({"kind": "heatmap", "hidden_sizes": [8, -1]}, "hidden_sizes"),
        ({"online": {"hidden_sizes": [0]}}, "online.hidden_sizes"),
        ({"kind": "explore", "online": {"hidden_sizes": [0]}}, "online.hidden_sizes"),
        ({"kind": "pretrain", "dataset_reset_every": 0}, "dataset_reset_every"),
        ({"kind": "obstacle-gen", "dataset_reset_every": 0}, "dataset_reset_every"),
        ({"kind": "ablation-correlated", "dataset_reset_every": 0}, "dataset_reset_every"),
        ({"kind": "ablation-correlated", "repeat_factor": 0}, "repeat_factor"),
        ({"kind": "explore", "env": "maze", "env_options": {"start": []}}, "start"),
        ({"kind": "explore", "env": "maze", "env_options": {"start": [0]}}, "start"),
        ({"kind": "obstacle-gen", "env_options": {"start": [0]}}, "start"),
        ({"env_options": {"start": [0.1, float("nan")]}}, "start"),
        ({"goal": [float("nan"), 0.0]}, "goal"),
        ({"learning_rate": 10**400}, "learning_rate"),
        ({"kind": "eval", "episodes": 0, "model_checkpoint": "model.npz"}, "episodes"),
        ({"kind": "obstacle-gen", "episodes": 0}, "episodes"),
        # kinds that read an energy network, given an action-FF checkpoint
        ({"kind": "heatmap", "model": "action-ff", "model_checkpoint": "ff.npz"}, "'ebm'"),
        ({"kind": "diversity", "model": "action-ff", "model_checkpoint": "ff.npz"}, "'ebm'"),
    ]
    for i, (extra, word) in enumerate(bad_configs):
        config = {"kind": "online", "goal": [0.0, 0.0], **extra}
        cfg_path = write_config(tmp_path, f"bad{i}.json", config)
        out = tmp_path / f"out{i}"
        assert main([config["kind"], "--config", cfg_path, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and word in err, err
        # rejected while loading, before any output is written
        assert not out.exists()


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


def test_runner_rejections_leave_no_out_dir(tmp_path, capsys):
    configs = tiny_configs(tmp_path)
    obstacle_on_reacher = {**configs["obstacle-gen"], "env": "reacher", "env_options": {}}
    # (command, config a runner rejects after loading, a word the diagnostic must contain)
    cases = [
        ("online", {**configs["online"], "goal": [0.0, 0.0, 0.0]}, "goal"),
        ("explore", {**configs["explore"], "explore_policy": "bogus"}, "bogus"),
        ("obstacle-gen", obstacle_on_reacher, "particle"),
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

    config_dir = Path(__file__).resolve().parents[1] / "src" / "ebmplan" / "configs"
    paths = sorted(config_dir.glob("*.json"))
    assert paths, "no shipped configs found"
    for path in paths:
        config = ExperimentConfig.from_json(path)
        assert config.seeds


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
