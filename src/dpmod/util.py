"""Small shared helpers: the solve thread pool and config hashing."""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ThreadPoolExecutor


def worker_count():
    """Threads of the solve pool: min(4, cpus)."""
    return min(4, os.cpu_count() or 1)


def parallel_map(fn, items):
    """Map preserving input order on at most worker_count() threads (tasks must be pure)."""
    items = list(items)
    workers = worker_count()
    if workers == 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def config_hash(text):
    """Short stable hash of a config file's canonicalized text."""
    canon = "\n".join(
        line.strip() for line in text.splitlines() if line.split("#", 1)[0].strip()
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
