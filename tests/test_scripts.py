"""The documented scripts, run as a user runs them: from a checkout,
without the package on the path, checked against the values the
acceptance tests pin."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name, *args):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_reproduce_examples_prints_the_worked_instances():
    proc = _script("reproduce_examples.py")
    assert (proc.returncode, proc.stderr) == (0, "")
    a4, d4 = proc.stdout.split("\n\n")[:2]
    assert a4.splitlines() == [
        "== a4, module with dims (1, 1, 0, 0) ==",
        "X        = (x1*x3 + x2*x4 + x4) / (x1*x2)",
        "laurent  = x2^-1*x3 + x1^-1*x4 + x1^-1*x2^-1*x4",
        "index    = {'1': 0, '2': 1, '3': -1, '4': 0}",
        "coindex  = {'1': 1, '2': 0, '3': 0, '4': -1}",
        "chi(Gr_(0, 0, 0, 0)) = 1",
        "chi(Gr_(1, 0, 0, 0)) = 1",
        "chi(Gr_(1, 1, 0, 0)) = 1",
    ]
    assert d4.splitlines() == [
        "== d4, module with dims (1, 1, 1, 0) ==",
        "X        = (x0^2 + 2*x0*x3 + x1*x2*x3 + x3^2) / (x0*x1*x2)",
        "laurent  = x0*x1^-1*x2^-1 + 2*x1^-1*x2^-1*x3 + x0^-1*x3 "
        "+ x0^-1*x1^-1*x2^-1*x3^2",
        "index    = {'0': 1, '1': 0, '2': 0, '3': -1}",
        "coindex  = {'0': -1, '1': 1, '2': 1, '3': 0}",
        "chi(Gr_(0, 0, 0, 0)) = 1",
        "chi(Gr_(0, 0, 1, 0)) = 1",
        "chi(Gr_(0, 1, 0, 0)) = 1",
        "chi(Gr_(0, 1, 1, 0)) = 1",
        "chi(Gr_(1, 1, 1, 0)) = 1",
    ]


def test_run_verify_an_passes_for_small_n():
    proc = _script("run_verify_an.py", "3")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["n=2", "n=3"]
    assert all("0 failed" in line and ": PASS" in line for line in lines)


@pytest.mark.parametrize("arg", ["1", "9", "x", "\u00b2", "\u0663"])
def test_run_verify_an_refuses_n_out_of_range_before_running(arg):
    proc = _script("run_verify_an.py", arg)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: n must lie in 2..8\n"
