"""Optional glibc allocator tuning for numerical hot loops.

The planners churn through many short-lived multi-hundred-KB temporaries.
With glibc defaults those cross the mmap/trim thresholds, so every iteration
re-faults fresh pages, which on sandboxed or virtualized hosts can dominate
the actual arithmetic by an order of magnitude. Raising both thresholds keeps
the pages resident. Safe to call multiple times; silently does nothing where
mallopt is unavailable.
"""

from __future__ import annotations

import ctypes

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_THRESHOLD_BYTES = 1 << 30


def tune_malloc() -> bool:
    try:
        libc = ctypes.CDLL("libc.so.6")
        ok = libc.mallopt(_M_TRIM_THRESHOLD, _THRESHOLD_BYTES)
        ok &= libc.mallopt(_M_MMAP_THRESHOLD, _THRESHOLD_BYTES)
        return bool(ok)
    except (OSError, AttributeError):
        return False
