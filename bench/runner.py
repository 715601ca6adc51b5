"""One benchmark execution in a fresh interpreter.

``run.py`` starts this script once per execution, with ``src`` on
``PYTHONPATH``. It times set-up (interpreter start until ``ebmplan`` is
imported, the config is loaded and the env is built), then the user's entry
point ``ebmplan.cli.main``, and writes a JSON result file. With ``--spans``
the layers are traced from outside and the per-layer summary is included.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _blas() -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {key: deps.get(key) for key in ("name", "version", "openblas configuration")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", default=None, help="trace the layers; write spans here")
    args = parser.parse_args()

    from ebmplan import cli, experiments

    config = experiments.ExperimentConfig.from_json(args.config)
    config.make_env()
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        tracer = None
        if args.spans is not None:
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        argv = [args.kind, "--config", args.config, "--seed", str(args.seed),
                "--out", args.out, "--quiet"]
        start = time.perf_counter()
        result["exit_code"] = cli.main(argv)
        result["wall_s"] = time.perf_counter() - start
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
        result["csv_headers"] = {k: list(v) for k, v in experiments.CSV_HEADERS.items()}
        if tracer is not None:
            result["layers"] = tracer.summary(result["wall_s"])
            tracer.write_spans(args.spans)
        import numpy as np

        result["numpy"] = np.__version__
        result["blas"] = _blas()
    Path(args.result).write_text(json.dumps(result))
    return result.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
