import os

import pytest

from elliptical import numerics


@pytest.fixture
def set_cpus(monkeypatch):
    """``set_cpus(n)`` gives the process n CPUs and no thread pool yet, so its next fanned
    map makes a pool of n threads.  Without the reset, a pool made earlier at another CPU
    count is kept; a dropped pool's idle threads exit once nothing holds it."""

    def set_cpus(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(numerics, "_pool", (0, None))

    return set_cpus
