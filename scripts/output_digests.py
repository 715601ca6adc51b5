"""Print a sha256 digest of every output of the byte-identity corpus.

The corpus is every shipped config cut to a short run at seeds 0-1, plus an
action-FF eval (``shipped_runs`` in ``tests/test_cli.py``); every
``tiny_configs`` kind at its own seeds and at ``--seed 2``; the tiny ``online``
and ``pretrain`` configs moved to the reacher with the action-FF model, which
reach the reacher's ``clip_action`` and its branch of ``random_policy``; and
every frozen bench workload at seeds 0-2. Each output file prints as one
``<run>/<file> <sha256>`` line, so two source trees compare with one diff:

    python3 scripts/output_digests.py > change.txt
    python3 scripts/output_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

``--src`` picks the ``ebmplan`` package that runs; the corpus always comes from
this checkout. The runs go one at a time through ``ebmplan.cli.main``, in one
process and one temporary working directory. A run that exits non-zero prints
``<run> exit <code>``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def corpus(tmp: Path, shipped_runs, tiny_configs) -> list[tuple[str, dict, list[str]]]:
    """(run name, config, extra CLI arguments) of every run, in run order."""
    runs = [(f"shipped/{name}", config, []) for name, config in shipped_runs([0, 1])]
    tiny = tiny_configs(tmp)
    for kind, config in tiny.items():
        runs += [(f"tiny/{kind}", config, []), (f"tiny/{kind}/seed2", config, ["--seed", "2"])]
    reacher_ff = {"env": "reacher", "env_options": {}, "model": "action-ff"}
    runs += [("tiny/online-reacher-actionff",
              {**tiny["online"], **reacher_ff, "goal": [0.4, -0.3, 0.0, 0.0]}, []),
             ("tiny/pretrain-reacher-actionff", {**tiny["pretrain"], **reacher_ff}, [])]
    for path in sorted((ROOT / "bench" / "workloads").glob("*.json")):
        config = json.loads(path.read_text())
        runs += [(f"workload/{path.stem}/seed{seed}", config, ["--seed", str(seed)])
                 for seed in range(3)]
    # shipped runs keep their own out_dir, which the eval checkpoints name
    return [(name, config if name.startswith("shipped/") else {**config, "out_dir": name}, extra)
            for name, config, extra in runs]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the ebmplan package to run (default: ./src)")
    args = parser.parse_args()
    sys.path[:0] = [str(Path(args.src).resolve()), str(ROOT / "tests")]
    from ebmplan.cli import main as cli
    from test_cli import shipped_runs, tiny_configs

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        os.chdir(tmp)
        for i, (name, config, extra) in enumerate(corpus(tmp, shipped_runs, tiny_configs)):
            cfg_path = tmp / f"config{i}.json"
            cfg_path.write_text(json.dumps(config))
            code = cli([config["kind"], "--config", str(cfg_path), "--quiet", *extra])
            if code != 0:
                print(f"{name} exit {code}", flush=True)
                continue
            out = Path(config["out_dir"])
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                print(f"{name}/{path.relative_to(out)} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
