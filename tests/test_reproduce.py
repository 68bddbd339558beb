"""``scripts/reproduce.py --quick`` runs both parts and writes the same bytes twice."""

import os
import subprocess
import sys
from pathlib import Path

import prodest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce.py"
PARTS = ("gandk", "poisson_beta")
RESULTS = ("chain/trace.csv", "chain/mcmc_summary.json",
           "recycle/estimates.csv", "simple/estimates.csv")


def _files(root: Path) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_quick_run_writes_identical_results(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(prodest.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    outputs = []
    for label in ("a", "b"):
        out = tmp_path / label
        result = subprocess.run(
            [sys.executable, str(SCRIPT), "--quick", "--out", str(out)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        for part in PARTS:
            for name in RESULTS:
                assert (out / part / name).is_file(), f"{part}/{name} missing"
        outputs.append(_files(out))
    assert outputs[0] == outputs[1]
