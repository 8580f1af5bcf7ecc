"""The scripts in scripts/ run end to end at small sizes, each in a
fresh interpreter as a user would start it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import shockline

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    src = str(Path(shockline.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, env=env, timeout=60)


def test_regime_map():
    proc = run_script("regime_map.py", "--n", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "alpha,lambda,gamma_side,lambda_side,theorem"
    assert len(lines) == 1 + 5 * 5


def test_convergence_study():
    proc = run_script("convergence_study.py", "--grids", "32", "64")
    assert proc.returncode == 0, proc.stderr
    assert "n=  32 vs n=  64: max diff" in proc.stdout
    assert proc.stdout.count("deviation") == 2


@pytest.mark.parametrize("args,code,pole,last", [
    # the steep default data break down on the first step at n=128
    ((), 1, None, "the data are under-resolved at n=128: breakdown on the "
                  "first step leaves nothing to trace"),
    # at n=128 the pole (about 0.2066) lies past the last traced time
    (("--gamma", "5", "--lam", "1", "--u-amp", "-3"), 0,
     "Riccati pole along the trace: none by t=0.196006",
     "observed breakdown precedes the bound: True"),
], ids=["under_resolved", "t41"])
def test_blowup_demo(args, code, pole, last):
    proc = run_script("blowup_demo.py", "--n", "128", *args)
    assert (proc.returncode, proc.stderr) == (code, "")
    lines = proc.stdout.splitlines()
    assert lines[-1] == last
    if pole is not None:  # printed before the two bound lines
        assert lines[-3] == pole
