"""Smoke test for the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Runs every workload at a tiny size, untraced and traced, and checks the
result line against BENCHMARK.json; checks that the default-seed corpus is
``tests/conftest.py``'s corpus instance for instance.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import conftest  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seconds: str = "0.5"):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "5",
         "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_result_line_matches_spec(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if (workload, trace) == ("crosscheck", 1):
        assert result["metrics"]["lp.solve.calls"]["value"] == 0
        assert result["metrics"]["numeric.slope.calls"]["value"] > 0


def test_default_corpus_is_the_test_corpus():
    expected = conftest.build_corpus()
    raws = inputs.corpus_inputs()
    assert len(raws) == len(expected) == 250
    for raw, want in zip(raws, expected):
        got = workloads.build_family(raw).frames
        assert len(got) == 1
        got = got[0]
        assert got.context == want.context
        assert (got.Av.weights, got.Aw.weights) == (want.Av.weights, want.Aw.weights)
        assert got.q == want.q  # closed form equals conftest's includes loop
        assert got.identity.vertices == want.identity.vertices
        view = workloads.oracle_view(raw)
        assert view.identity.vertices == want.identity.vertices


def test_cli_workload_cleans_up(tmp_path):
    wl = workloads.make("cli", 5, tmp_path)
    assert wl.ops and all(Path(a).is_file() for a in (op[1] for op in wl.ops))
    wl.close()
    assert list(tmp_path.iterdir()) == []
