"""Smoke runs of the experiment scripts: each runs the pipeline into a
temporary directory, exits 0 and prints its dominance-band lines."""

import re
import subprocess
import sys
from pathlib import Path

from conftest import child_env

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
BAND = r"\[[+-]\d\.\d{3},[+-]\d\.\d{3}\]"


def run_script(name, *args, cwd):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        cwd=cwd, env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_null_experiment(tmp_path):
    out = run_script("run_null_experiment.py", "--events", "40000", "--sessions", "2",
                     "--lags", "1,20", "--out", str(tmp_path / "null"), cwd=tmp_path)
    assert re.search(r"^dominance bands containing 0: \d/2 lags$", out, re.M)
    assert (tmp_path / "null" / "lags.csv").exists()


def test_injection_experiment(tmp_path):
    out = run_script("run_injection_experiment.py", "--kind", "asymmetric",
                     "--events", "200000", "--sessions", "2", "--inject-lag", "5",
                     "--out", str(tmp_path / "inj"), cwd=tmp_path)
    rows = re.findall(rf"^\s+(\d+)\s+[+-]?\d\.\d{{3}}\s+{BAND}\s+\d\.\d{{4}}", out, re.M)
    assert [int(lag) for lag in rows] == [1, 2, 5, 10, 20, 50, 200]
    assert re.search(r"^even component in the wings .* at lag 5: min S = ", out, re.M)
