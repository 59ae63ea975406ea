"""Start-up cost: the package, its CLI and its band kernels (band volume,
band sampler, overlap tail) run on numpy alone; no scipy module loads.
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


def test_band_paths_run_without_scipy(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CORNER_DOC))
    code = "\n".join([
        "import numpy as np",
        "import multispin.cli",
        "from multispin.geometry import (BandSpec, log_band_volume, sample_on_shell,",
        "                                sample_uniform_in_band_batch, uniform_overlap_tail)",
        "from multispin.hamiltonian import build_instance",
        "from multispin.mixture import Mixture, SpeciesLayout",
        "from multispin.thermo import multi_replica_fe",
        "lay = SpeciesLayout(('a', 'b'), (3, 4))",
        "rng = np.random.default_rng(0)",
        "m = sample_on_shell(lay, [0.3, 0.5], rng)",
        "assert np.isfinite(log_band_volume(lay, [0.3, 0.5], 0.2))",
        "assert sample_uniform_in_band_batch(m, 0.2, 50, rng).shape == (50, 7)",
        "assert 0.0 < uniform_overlap_tail(8, 0.35) < 1.0",
        "h = build_instance(Mixture.from_terms({(1, 1): 1.0}), lay, seed=1)",
        "est = multi_replica_fe(h, BandSpec(m, 0.3, n=2, rho=0.3), [0.0, 0.5, 1.0], 20, rng)",
        "assert np.isfinite(est.value)",
        f"out = {str(tmp_path)!r} + '/verify'",
        f"assert multispin.cli.main(['verify', '--config', {str(config)!r}, '--out', out]) == 0",
    ])
    assert _scipy_modules_after(code) == []


@pytest.mark.parametrize("name", ["multispin"] + [
    f"multispin.{m.name}" for m in pkgutil.iter_modules(multispin.__path__)
    if not m.name.startswith("_")])
def test_public_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
