"""Solve pool helpers and config hashing."""

from dpmod import util
from dpmod.util import config_hash, parallel_map, worker_count


def test_worker_count_env():
    assert worker_count() >= 1


def test_parallel_map_preserves_order(monkeypatch):
    items = list(range(13))
    assert parallel_map(lambda v: v * v, items) == [v * v for v in items]
    monkeypatch.setattr(util, "worker_count", lambda: 1)   # serial path
    assert parallel_map(lambda v: -v, items) == [-v for v in items]


def test_config_hash_canonicalization():
    a = config_hash("kind = gen\nn = 2\n")
    assert a == config_hash("  kind = gen\n\n# note\nn = 2")
    assert a != config_hash("kind = gen\nn = 3\n")
    assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)
