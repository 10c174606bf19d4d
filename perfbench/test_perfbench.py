"""Tests of the benchmark itself: its helpers, its contract file, and a
smoke-size run of every workload, untraced and traced.

    PYTHONPATH=src python -m pytest perfbench
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from slackline import harness
from slackline.config import TaskConfig
from slackline.explore import _arbitrary_action
from slackline.seeding import make_rng
from slackline.simulator import EnvState, ExecStats, execute, generate_env

from measure import Digests, end_to_end
from run import WORKLOAD_NAMES
from stats import percentile, quartile_spread, ratio, sha256_files
from tracing import Tracer, contract_excess
from workloads import Round, mlp_train_flops, sweep_point_config

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


class TestPercentile:
    def test_needs_ten_samples_beyond(self):
        assert percentile(list(range(999)), 99) is None
        assert percentile(list(range(1000)), 99) == 989
        assert percentile(list(range(19)), 50) is None
        assert percentile(list(range(20)), 50) == 9

    def test_nearest_rank_ignores_order(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        assert percentile(values, 50) == 3.0

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError):
            percentile([1.0] * 50, 100)


def test_ratio_carries_its_base():
    assert ratio(3, 4) == (0.75, 4)
    assert ratio(3, 0) == (0.0, 0)


def test_file_digest_sees_boundaries(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"xy")
    b.write_bytes(b"z")
    first = sha256_files([str(a), str(b)])
    a.write_bytes(b"x")
    b.write_bytes(b"yz")
    assert sha256_files([str(a), str(b)]) != first


def test_quartile_spread():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


def test_digests_compare_rounds_of_one_input_set(tmp_path):
    first = Digests(str(tmp_path), "key", None)
    assert first.add("round 1", 0, {"d": "a"})
    assert first.add("round 2", 1, {"d": "b"})  # another input set may differ
    assert first.add("round 3", 0, {"d": "a"})
    assert not first.add("round 4", 1, {"d": "c"})
    assert len(first.mismatches) == 1
    first.settle()
    # a later run of the same code and seed must agree with the stored ones
    again = Digests(str(tmp_path), "key", {"d@0": "x"})
    again.add("round 1", 0, {"d": "a"})
    again.add("round 2", 1, {"d": "z"})
    notes = again.settle()
    assert again.mismatches == ["d@1 differs from an earlier run of this code and seed"]
    assert notes == ["behaviour change: d@0 differ from the reference digests"]


def test_work_per_s_weighs_each_input_set_once():
    class Workload:
        distinct_rounds = 2
        unit = "items"

        @staticmethod
        def success_pct(rnd):
            return rnd.work

    # input set 0 ran twice (1 s and a 5 s stall), set 1 once
    rounds = [Round(1.0, 10, 10, {}, None), Round(3.0, 30, 30, {}, None),
              Round(5.0, 10, 10, {}, None)]
    values = end_to_end(Workload, [0.3, 0.1, 0.2], rounds)
    assert values["work_per_s"][0] == pytest.approx(40 / (3.0 + 3.0))
    assert values["setup_s"][0] == 0.2
    assert values["success_pct"][0] == 20.0


def test_mlp_flops_count_each_product():
    # (2x3, 3x1): forward 2*(6+3), weight gradients 2*(6+3), delta into layer 1: 2*3
    assert mlp_train_flops((2, 3, 1)) == 18 + 18 + 6


class _Stop(Exception):
    pass


@pytest.mark.parametrize("value", [0.02, 0.05, 0.06])
def test_sweep_point_config_is_what_sweep_evaluates(monkeypatch, value):
    seen = []

    def fake_evaluate(cells, n, config, seed, artifacts, workers):
        seen.append(config)
        raise _Stop

    monkeypatch.setattr(harness, "evaluate", fake_evaluate)
    with pytest.raises(_Stop):
        harness.sweep("obstacle_radius", [value], 1, TaskConfig(), 0, None)
    assert seen == [sweep_point_config(TaskConfig(), "obstacle_radius", value)]


class TestContract:
    def test_executed_actions_pass(self):
        config = TaskConfig()
        state = generate_env(config, 600_001)
        rng = make_rng(61, 1)
        for _ in range(10):
            action = _arbitrary_action(state, config, rng)
            new_state = execute(state, action, config)
            link, bend, pen = contract_excess(state, new_state, config)
            assert link < 1e-9 and bend <= 1e-9 and pen <= 1e-3
            state = new_state

    def test_detects_each_violation(self):
        config = TaskConfig(obstacle_count=1)
        q = np.array([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.3, 0.2]])
        before = EnvState(q, np.array([[0.9, 0.5]]))
        stretched = EnvState(q * [1.0, 1.5], before.o)
        assert contract_excess(before, stretched, config)[0] > 1e-3
        bent = EnvState(np.array([[0.1, 0.1], [0.2, 0.1], [0.1, 0.1 + 1e-6],
                                  [0.2, 0.1 + 1e-6]]), before.o)
        assert contract_excess(before, bent, config)[1] > 1.0
        pierced = EnvState(q, np.array([[0.2, 0.11]]))
        assert contract_excess(before, pierced, config)[2] == pytest.approx(0.03)

    def test_penetration_is_told_apart_from_shape_breaches(self):
        """A penetration-only breach is the known executor defect; a link
        or bend breach is counted apart, as it makes a run incorrect."""
        config = TaskConfig(obstacle_count=1)
        q = np.array([[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.4, 0.1]])
        before = EnvState(q, np.array([[0.9, 0.5]]))
        outcomes = [EnvState(q, np.array([[0.2, 0.11]])),  # pierced
                    EnvState(q * [1.5, 1.0], before.o)]  # stretched
        stats = ExecStats()
        tracer = Tracer()
        execute_traced = tracer.executor(lambda s, a, c: (outcomes.pop(0), stats))
        execute_traced(before, _Action(), config)
        assert tracer.counts["simulator.contract_violations"] == 1
        assert tracer.counts["simulator.shape_violations"] == 0
        execute_traced(before, _Action(), config)
        assert tracer.counts["simulator.contract_violations"] == 2
        assert tracer.counts["simulator.shape_violations"] == 1
        assert len(tracer.violations) == 2


class _Action:
    follower = None


def test_benchmark_file_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in BENCH["workloads"])
    for m in BENCH["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and unit.match(m["unit"])
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for m in BENCH["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    runs = 4 + 22 * len(BENCH["workloads"])
    assert runs * BENCH["run_seconds"] < 3420


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run(workload):
    untraced = run_bench(workload, 0)
    assert untraced.returncode == 0, untraced.stderr
    result = json.loads(untraced.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run_bench(workload, 1)
    assert traced.returncode == 0, traced.stderr
    layers = json.loads(traced.stdout.splitlines()[-1])
    assert layers["correct"]
    assert set(layers["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    value = {k: v["value"] for k, v in layers["metrics"].items()}
    # the separation the workloads are chosen for
    if workload == "train":
        assert value["simulator.execute.calls"] == 0 and value["encoder.train.busy_s"] > 0
    else:
        assert value["simulator.execute.calls"] > 0 and value["encoder.train.busy_s"] == 0
    if workload in ("eval", "sweep-clutter"):
        # spans recorded inside the pool workers came back to the parent
        assert value["policy.run_episode.calls"] == layers["attempted"] / 3
        assert value["planner.contrastive.plan.calls"] > 0
    assert all(math.isfinite(v) for v in value.values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("eval", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
