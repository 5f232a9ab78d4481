import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# The stdout of each demo, byte for byte, in demo_output/<demo name>.txt.
GOLDEN = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_found():
    assert DEMOS
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    run = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=ROOT, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()
    golden = GOLDEN / f"{demo.stem}.txt"
    assert run.stdout == golden.read_text(encoding="utf-8")
