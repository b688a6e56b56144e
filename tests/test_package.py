"""Public surface: every exported name resolves, importing the package stays
cheap, and ``python -m elliptical`` runs the command line."""

import os
import subprocess
import sys
from pathlib import Path

import elliptical


def test_every_export_resolves():
    missing = [name for name in elliptical.__all__ if not hasattr(elliptical, name)]
    assert missing == []
    assert len(set(elliptical.__all__)) == len(elliptical.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from elliptical import *", namespace)
    assert set(elliptical.__all__) <= set(namespace)


def _checkout_env() -> dict:
    src = str(Path(elliptical.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_import_loads_no_scipy():
    # scipy.stats is most of a cold start; only nw-sparse and estimator-bench
    # need it, and they import it where they call it
    code = (
        "import sys, elliptical, elliptical.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_checkout_env(), capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_module_entry_point_runs_verify(tmp_path):
    # ``python -m elliptical`` works from a checkout, without the console script
    proc = subprocess.run([sys.executable, "-m", "elliptical", "verify", "--set", f"out={tmp_path / 'v'}"],
                          env=_checkout_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "v" / "verify.csv").exists()
