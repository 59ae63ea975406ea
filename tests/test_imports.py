"""Start-up cost: the package and its CLI import numpy but not scipy, and
scipy loads only on the band paths (band volume, band sampler, overlap tail).
Every exported name of the package and its modules resolves."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import multispin

SRC = str(Path(multispin.__file__).resolve().parent.parent)

CORNER_DOC = {
    "master_seed": 11,
    "model": {
        "species": ["a", "b"],
        "sizes": [1, 1],
        "terms": [{"p": [1, 1], "delta_sq": 0.8}, {"p": [2, 0], "delta_sq": 0.3}],
    },
    "ground_state": {"q": [0.4, 0.6], "seeds": 2},
    # thermodynamic integration, so the scan also takes the Simpson path
    "tap_scan": {"q_grid": [[0.0, 0.0], [0.3, 0.3]], "method": "ti",
                 "beta_grid": [0.0, 0.5, 1.0], "sweeps": 20, "seeds": 2},
}


def _scipy_modules_after(code: str) -> list:
    """Names of the scipy modules loaded by a fresh interpreter that runs code."""
    script = code + (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_runs_without_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CORNER_DOC))
    code = "\n".join([
        "import multispin, multispin.cli",
        "for command in ('tap-scan', 'ground-state'):",
        f"    out = {str(tmp_path)!r} + '/' + command",
        f"    assert multispin.cli.main([command, '--config', {str(config)!r}, '--out', out]) == 0",
    ])
    assert _scipy_modules_after(code) == []


def test_band_volume_loads_scipy():
    code = ("from multispin.geometry import log_band_volume\n"
            "from multispin.mixture import SpeciesLayout\n"
            "log_band_volume(SpeciesLayout(('a',), (8,)), [0.5], 0.1)")
    assert "scipy.integrate" in _scipy_modules_after(code)


@pytest.mark.parametrize("name", ["multispin"] + [
    f"multispin.{m.name}" for m in pkgutil.iter_modules(multispin.__path__)
    if not m.name.startswith("_")])
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
