"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that traced and untraced outputs agree, and that a wrong expected value
shows up as a failed op.
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (run.py sets the pinned thread variables before numpy loads)
from workloads import Workload  # noqa: E402

sys.path.insert(0, run.SRC)

TINY = {
    "test": Workload("tiny-test", "test", states=3, delta=6, n=3000, alternatives=1, epsilon=0.1),
    "risk": Workload("tiny-risk", "risk", states=3, delta=4, n=200, trials=4, alternatives=1,
                     epsilon=0.15),
    "scan": Workload("tiny-scan", "scan", states=3, delta=6, n_grid=(100, 200), trials=4,
                     alternatives=2, workers=2),
}


def declared(kind: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("traced, kind", [(False, "end_to_end"), (True, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(traced, kind):
    line, _ = run.run_workload(TINY["risk"], seed=3, seconds=0, traced=traced)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    emitted = {name: m["unit"] for name, m in line["metrics"].items()}
    assert emitted == declared(kind)
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert line["correct"] and line["attempted"] >= run.MIN_OPS


@pytest.mark.parametrize("kind", ["test", "scan"])
def test_traced_outputs_match_untraced(kind):
    line, report = run.run_workload(TINY[kind], seed=4, seconds=0, traced=True)
    assert report["failures"] == {}
    assert line["failed"] == 0 and line["correct"]
    metrics = line["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.9
    assert metrics["trace.errors"]["value"] == 0
    if kind == "scan":
        # the traced run forces one worker; the child used two
        assert metrics["testing.estimate_risk.calls"]["value"] == len(TINY[kind].n_grid)
    else:
        assert metrics["sampling.simulate.calls"]["value"] == 0


@pytest.mark.parametrize("kind", ["test", "risk"])
def test_wrong_expected_value_counts_as_failure(kind):
    workload = TINY[kind]
    line, report = run.run_workload(workload, seed=5, seconds=0, traced=False)
    assert line["failed"] == 0
    expected = copy.deepcopy(report["first_outputs"])
    key = "contrast_estimate" if kind == "test" else "type1"
    expected[0][key] += 0.25
    line, report = run.run_workload(workload, seed=5, seconds=0, traced=False, expected=expected)
    assert line["failed"] == 1 and not line["correct"]
    assert report["fail_rate"] > 0
    assert any(key in problem for problem in report["failures"][0])
