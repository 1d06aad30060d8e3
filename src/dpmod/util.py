"""Small shared helpers: the CPU count and config hashing."""

from __future__ import annotations

import hashlib
import os


def worker_count():
    """min(4, cpus); perfbench records it in its environment line."""
    return min(4, os.cpu_count() or 1)


def config_hash(text):
    """Short stable hash of a config file's canonicalized text."""
    canon = "\n".join(
        line.strip() for line in text.splitlines() if line.split("#", 1)[0].strip()
    )
    return hashlib.sha256(canon.encode()).hexdigest()[:12]
