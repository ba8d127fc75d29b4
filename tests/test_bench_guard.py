"""The traced benchmark worker still runs against the current package.

``perfbench/worker.py --trace`` wraps the package's public functions and
describes the modal solves by their attributes, so an API change that breaks
it would otherwise show only when the benchmark runs.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HORIZON = 2 * math.pi + 0.5

CONFIGS = {
    "reconstruct": {
        "kernel": {"variant": "exponential", "beta": 1.0, "alpha": 1.0},
        "sigma": {"form": "affine", "a": 1.0, "b": 0.5},
    },
    "stability-scan": {
        "kernel": {"variant": "polynomial", "coefficients": [1.0, -0.5]},
        "sigma": {"form": "affine", "a": 1.0, "b": 0.5},
        "trials": 20,
    },
}


@pytest.mark.parametrize("study", sorted(CONFIGS))
def test_traced_worker_runs(tmp_path, study):
    cfg = {
        "operator": {"length": math.pi, "observed_endpoints": ["left", "right"]},
        "grid": {"T": HORIZON, "dt": HORIZON / 512},
        "N": 4,
        "study": study,
        "seed": 1,
        "source": "random",
        **CONFIGS[study],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(path), str(out), "--trace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "worker.json").read_text())["code"] == 0
    spans = json.loads((out / "spans.json").read_text())
    solves = [attrs for name, _, _, _, attrs in spans if name == "modal.solve_w_many"]
    assert solves
    for attrs in solves:
        assert set(attrs) == {"kernel", "key", "mode_steps", "bytes"}
        assert attrs["mode_steps"] == 4 * 512
        assert attrs["bytes"] > 0
