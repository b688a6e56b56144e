"""Public surface: every exported name resolves."""

import elliptical


def test_every_export_resolves():
    missing = [name for name in elliptical.__all__ if not hasattr(elliptical, name)]
    assert missing == []
    assert len(set(elliptical.__all__)) == len(elliptical.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from elliptical import *", namespace)
    assert set(elliptical.__all__) <= set(namespace)
