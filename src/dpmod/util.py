"""The CPU count that perfbench records in its environment line; no dpmod code reads it."""

import os


def worker_count():
    """min(4, cpus); perfbench/work.py records it in its environment line."""
    return min(4, os.cpu_count() or 1)
