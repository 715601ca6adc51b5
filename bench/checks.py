"""Correctness checks and behaviour numbers read from a run's output files."""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

# output file -> key of ebmplan.experiments.CSV_HEADERS
CSV_KINDS = {"metrics.csv": "online", "episodes.csv": "episodes", "pretrain.csv": "pretrain"}


def expected_outputs(kind: str, model: str, seed: int) -> list[str]:
    checkpoint = f"model_{model}_seed{seed}.npz"
    if kind == "online":
        return ["metrics.csv", "episodes.csv", checkpoint]
    if kind == "pretrain":
        return ["pretrain.csv", checkpoint]
    raise ValueError(f"no expected outputs for experiment kind {kind!r}")


def sha256_file(path: str | Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(out_dir: str | Path) -> dict[str, str]:
    """sha256 of every file the run wrote, by file name."""
    return {p.name: sha256_file(p) for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def digest_mismatches(reference: dict[str, str], other: dict[str, str]) -> list[str]:
    """Names of files missing from one side or differing in content."""
    return sorted(name for name in set(reference) | set(other)
                  if reference.get(name) != other.get(name))


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return (rows[0], rows[1:]) if rows else ([], [])


def output_problems(out_dir: str | Path, expected: list[str],
                    headers: dict[str, list[str]]) -> list[str]:
    """Missing files, CSV headers that differ from ``headers``, non-finite cells."""
    out_dir = Path(out_dir)
    problems = []
    for name in expected:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name}: missing")
            continue
        if name not in CSV_KINDS:
            continue
        header, rows = read_csv(path)
        want = list(headers[CSV_KINDS[name]])
        if header != want:
            problems.append(f"{name}: header {header} != {want}")
        if not rows:
            problems.append(f"{name}: no rows")
        for line, row in enumerate(rows, start=2):
            if any(not math.isfinite(float(cell)) for cell in row):
                problems.append(f"{name}:{line}: non-finite value")
                break
    return problems


def last_quartile_mean(values: list[float]) -> float:
    """Mean of the last quarter of ``values`` (at least the last one)."""
    if not values:
        raise ValueError("no values")
    k = max(1, len(values) // 4)
    return sum(values[-k:]) / k


def column(path: str | Path, name: str) -> list[float]:
    header, rows = read_csv(path)
    i = header.index(name)
    return [float(row[i]) for row in rows]


def behaviour(out_dir: str | Path, kind: str) -> dict[str, float]:
    """Last-quartile episode score (online only) and logged loss."""
    out_dir = Path(out_dir)
    if kind == "online":
        return {
            "score_last_quartile": last_quartile_mean(column(out_dir / "episodes.csv", "score")),
            "loss_last_quartile": last_quartile_mean(column(out_dir / "metrics.csv", "loss")),
        }
    return {"loss_last_quartile": last_quartile_mean(column(out_dir / "pretrain.csv", "loss"))}
