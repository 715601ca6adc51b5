"""Print a sha256 digest of every output of the byte-identity corpus.

The corpus is every shipped config cut to a short run at seeds 0-1, plus an
action-FF eval (``shipped_runs`` in ``tests/test_cli.py``); every
``tiny_configs`` kind at its own seeds and at ``--seed 2``; the tiny ``online``
and ``pretrain`` configs moved to the reacher with the action-FF model, which
reach the reacher's ``clip_action`` and ``random_action``; the tiny ``online``
config with its goal at the start, which reaches ``run_online``'s cut at a goal
hit; the tiny ``explore`` config with inline ``env_options.walls``; and every
frozen bench workload at seeds 0-2. Each output file prints as one
``<run>/<file> <sha256>`` line, so two source trees compare with one diff:

    python3 scripts/output_digests.py > change.txt
    python3 scripts/output_digests.py --src ../parent/src > parent.txt
    diff parent.txt change.txt

``--src`` picks the ``ebmplan`` package that runs; the corpus always comes from
this checkout. The runs go one at a time through ``ebmplan.cli.main``, in one
process and one temporary working directory. A run that exits non-zero prints
``<run> exit <code>``.

The committed ledger ``OUTPUTS.sha256`` holds these lines at HEAD, after a
``#`` line naming the host that wrote it. OpenBLAS picks its float32 kernels
per CPU, at load, so another host may print other digests; the host line ends
with the core that OpenBLAS picked. To check a tree against the
ledger, or to rewrite the ledger when a change moves an output on purpose:

    python3 scripts/output_digests.py --check OUTPUTS.sha256
    python3 scripts/output_digests.py --write OUTPUTS.sha256

``--check`` prints every changed, missing or extra line and exits 1 if there
is any.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

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
             ("tiny/pretrain-reacher-actionff", {**tiny["pretrain"], **reacher_ff}, []),
             ("tiny/online-goal-at-start",
              {**tiny["online"], "goal": tiny["online"]["env_options"]["start"]}, []),
             ("tiny/explore-inline-walls",
              {**tiny["explore"], "env_options": {"walls": [[-0.2, -0.6, 0.2, 0.6]]}}, [])]
    for path in sorted((ROOT / "bench" / "workloads").glob("*.json")):
        config = json.loads(path.read_text())
        runs += [(f"workload/{path.stem}/seed{seed}", config, ["--seed", str(seed)])
                 for seed in range(3)]
    # shipped runs keep their own out_dir, which the eval checkpoints name
    return [(name, config if name.startswith("shipped/") else {**config, "out_dir": name}, extra)
            for name, config, extra in runs]


def openblas_core() -> str:
    """The CPU core whose kernels numpy's bundled OpenBLAS chose at load, or ``unknown``."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    try:
        corename = ctypes.CDLL(str(libs[0])).scipy_openblas_get_corename64_
    except (IndexError, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def host_line() -> str:
    """The ledger's first line: the CPU model, the numpy and OpenBLAS versions, and the
    OpenBLAS runtime core, which picks the float32 kernels."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return f"# host: {cpu}; numpy {np.__version__}; BLAS {blas}; OpenBLAS core {openblas_core()}"


def compare(ledger: list[str], lines: list[str]) -> list[str]:
    """One line per difference between the ledger's lines and a run's: changed,
    missing (in the ledger only) or extra (in the run only). ``#`` lines are skipped."""
    def entries(text_lines):
        # "<run>/<file> <sha256>", or "<run> exit <code>"
        return dict(line.rsplit(" ", 1) for line in text_lines
                    if line.strip() and not line.startswith("#"))

    want, got = entries(ledger), entries(lines)
    out = []
    for name, digest in want.items():
        if name not in got:
            out.append(f"missing: {name} {digest}")
        elif got[name] != digest:
            out.append(f"changed: {name} {digest} -> {got[name]}")
    return out + [f"extra: {name} {digest}" for name, digest in got.items() if name not in want]


def digests(src: str):
    """Yield one line per output of every corpus run, run by the ebmplan package in src."""
    sys.path[:0] = [str(Path(src).resolve()), str(ROOT / "tests")]
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
                yield f"{name} exit {code}"
                continue
            out = Path(config["out_dir"])
            for path in sorted(p for p in out.rglob("*") if p.is_file()):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                yield f"{name}/{path.relative_to(out)} {digest}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the ebmplan package to run (default: ./src)")
    ledger = parser.add_mutually_exclusive_group()
    ledger.add_argument("--check", type=Path, metavar="LEDGER",
                        help="print every line that differs from LEDGER; exit 1 if any does")
    ledger.add_argument("--write", type=Path, metavar="LEDGER",
                        help="write LEDGER: the host line, then the digests")
    args = parser.parse_args()
    if args.check is None and args.write is None:
        for line in digests(args.src):
            print(line, flush=True)
        return 0
    # resolved before the corpus moves into its temporary working directory
    ledger_path = (args.check or args.write).resolve()
    lines = list(digests(args.src))
    if args.write is not None:
        ledger_path.write_text("\n".join([host_line(), *lines]) + "\n")
        return 0
    differences = compare(ledger_path.read_text().splitlines(), lines)
    for line in differences:
        print(line)
    print(f"{len(differences)} lines differ from {args.check}")
    if differences:  # another CPU may get other float32 kernels from OpenBLAS
        print(f"this run's {host_line()[2:]}")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
