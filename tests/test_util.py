"""CPU count and config hashing."""

from dpmod.util import config_hash, worker_count


def test_worker_count_env():
    assert worker_count() >= 1


def test_config_hash_canonicalization():
    a = config_hash("kind = gen\nn = 2\n")
    assert a == config_hash("  kind = gen\n\n# note\nn = 2")
    assert a != config_hash("kind = gen\nn = 3\n")
    assert len(a) == 12 and all(c in "0123456789abcdef" for c in a)
