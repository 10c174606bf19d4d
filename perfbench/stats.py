"""Number helpers shared by the benchmark: percentiles, ratios with their
base, digests and the quartile spread used to judge steadiness."""

from __future__ import annotations

import hashlib
import math
import os
import statistics
from typing import Sequence

# a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float | None:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples lie above its rank."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie strictly between 0 and 100, got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def ratio(num: float, base: float) -> tuple[float, float]:
    """(num / base, base); a zero base gives a zero ratio so that layers a
    workload never calls still report a number."""
    return (num / base if base else 0.0), base


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_files(paths: Sequence[str]) -> str:
    """One digest over several files, in the given order, each prefixed by
    its length so that moving bytes between files changes the digest."""
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            data = fh.read()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
    gives them; 0 when the median is 0."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


def tree_digest(root: str) -> str:
    """sha256 over the relative paths and bytes of every .py file below
    root."""
    parts = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    parts.append(os.path.relpath(path, root).encode() + b"\0" + fh.read())
    return sha256_bytes(b"\0\0".join(parts))
