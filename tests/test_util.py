"""CPU count."""

from dpmod.util import worker_count


def test_worker_count_env():
    assert worker_count() >= 1
