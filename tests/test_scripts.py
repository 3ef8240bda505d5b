"""Smoke runs of the scripts under scripts/, each on a small input."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("argv", [
    ["certificate_atlas.py", "--grid", "3"],
    ["relaxation_portrait.py", "--n", "2", "--tmax", "1"],
    # t_end below the default snapshot interval of 1.0
    ["scheme_shootout.py", "--t-end", "0.1", "--orders", "2", "4", "--cells", "16", "32"],
], ids=lambda argv: argv[0].removesuffix(".py"))
def test_script_runs(argv, package_env):
    done = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
                          env=package_env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
