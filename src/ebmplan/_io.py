"""Atomic replacement of output files."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: str | Path, data: bytes) -> None:
    """Write ``data`` to a temp file beside ``path``, then rename it over ``path``.

    Readers never see a partly written file, and a write that fails before
    the rename leaves the previous contents of ``path`` in place.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)
