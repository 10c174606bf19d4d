"""The benchmark's tracer must still reach every layer it reports.

perfbench/tracing.py rebinds functions where the package calls them
(`controller.sequence_feasible_xy`, `policy.execute`, each planner's `plan`,
...). A refactor that calls around one of those names leaves the run correct
but reads a per-layer metric as zero, so a small collect and a small
evaluation are traced here and every such metric must be counted.
"""

import os
import sys

import pytest

from slackline import explore, harness
from slackline.config import TrainConfig
from slackline.planner import train_autoencoder

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

from tracing import Tracer, instrument, span_stats  # noqa: E402


def traced(run) -> dict:
    tracer = Tracer()
    with instrument(tracer):
        run()
    stats = span_stats(tracer)
    return {name: entry["calls"] for name, entry in stats.items()}


def test_collect_reaches_every_layer(task_config):
    calls = traced(lambda: explore.collect(task_config, episodes=1, seed=4,
                                           pool_size=2))
    for name in ("geometry.sequence_feasible", "simulator.execute",
                 "controller.feasible_correspondence_actions"):
        assert calls.get(name, 0) > 0, name


@pytest.fixture(scope="module")
def artifacts(small_dataset, small_encoder):
    ae = train_autoencoder(
        small_dataset, TrainConfig(embed_dim=8, batch_anchors=16, epochs=1, seed=2)
    ).params
    return harness.EvalArtifacts(small_dataset, small_encoder, ae)


def test_pooled_evaluate_reaches_every_layer(task_config, artifacts):
    # the artifacts are this test's alone, so every planner, the index
    # included, is built inside the traced run
    calls = traced(lambda: harness.evaluate(
        list(harness.FULL_MATRIX), 2, task_config, 5, artifacts, 2
    ))
    names = ["geometry.sequence_feasible", "simulator.execute",
             "controller.feasible_correspondence_actions",
             "planner.build_index", "encoder.encode_batch"]
    names += [f"planner.{p}.plan" for p in harness.PLANNER_NAMES]
    names += [f"controller.{c}.select" for c in harness.CONTROLLER_NAMES]
    for name in names:
        assert calls.get(name, 0) > 0, name
    assert calls["planner.build_index"] == 1
