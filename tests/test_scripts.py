"""Smoke runs of the scripts under scripts/, each on a small input."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["certificate_atlas.py", "--grid", "3"],
    ["relaxation_portrait.py", "--n", "2", "--tmax", "1"],
    # t_end below the default snapshot interval of 1.0
    ["scheme_shootout.py", "--t-end", "0.1", "--orders", "2", "4", "--cells", "16", "32"],
], ids=lambda argv: argv[0].removesuffix(".py"))
def test_script_runs(argv, subprocess_env):
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          env=subprocess_env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_output_census_finds_a_changed_coefficient(subprocess_env, tmp_path):
    # A census of two commands, then one against it after the first's
    # snapshots were scaled by 1 + 1e-9: that file differs, nothing else.
    census = [sys.executable, str(SCRIPTS / "output_census.py"), "--only", "check-case1", "run-case1-short"]

    def take(*argv):
        return subprocess.run([*census, *argv], env=subprocess_env, capture_output=True, text=True,
                              timeout=120)

    first = take("--out", str(tmp_path / "a"))
    assert first.returncode == 0, first.stderr
    baseline = json.loads(first.stdout)
    assert baseline["commands"]["run-case1-short"]["exit"] == 0
    assert baseline["runs"]["run-case1-short"]["outcome"] == "t_max_reached"
    npy = tmp_path / "a" / "run-case1-short" / "snapshots.npy"
    np.save(npy, np.load(npy) * (1.0 + 1e-9))
    baseline["files"]["run-case1-short/snapshots.npy"] = hashlib.sha256(npy.read_bytes()).hexdigest()
    (tmp_path / "a.json").write_text(json.dumps(baseline))

    second = take("--against", str(tmp_path / "a.json"))
    assert second.returncode == 1, second.stderr
    differences = json.loads(second.stdout)["differences"]
    assert differences["files"] == ["run-case1-short/snapshots.npy"]
    assert differences["commands"] == []
    run = differences["runs"]["run-case1-short"]
    assert run["counters"] == {}
    assert run["max_rel_coeff_diff"] == pytest.approx(1e-9, rel=1e-3)
