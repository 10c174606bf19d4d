"""Golden digests of the pipeline on the session fixtures: the saved dataset,
the encoder, the autoencoder, and the evaluation and sweep outputs. They were
computed before the planners shared one state table and one retrieval index;
a refactor that moves any of them changes behaviour. The evaluation and sweep
digests were re-pinned when the follower came to be chosen on, and dragged
from, the state the leader's drag leaves; the dataset and model digests did
not move.

The encoder's bytes depend on the number of OpenBLAS threads: under
OPENBLAS_NUM_THREADS=1 `test_encoder` reads 935c4dc4de40... instead of the
pinned 41e6810c8809..., which 2, 3 and 4 threads all give (a (256x528) @
(528x256) product already differs between 1 and 2 threads). ENCODER is the
multi-threaded result; the other digests that depend on the encoder are
pinned at the same setting. The conftest.py at the root of the repository
sets OPENBLAS_NUM_THREADS=2 before numpy loads, so these digests hold
whatever thread count the calling shell exports."""

import hashlib
import json

import pytest

from slackline.config import TrainConfig
from slackline.encoder import params_digest
from slackline.explore import save_dataset
from slackline.harness import FULL_MATRIX, EvalArtifacts, evaluate, sweep
from slackline.planner import train_autoencoder


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def results_digest(per_cell) -> str:
    """sha256 of every results line, cell by cell, as `slackline eval`
    writes them."""
    lines = [
        json.dumps(r.to_obj(), separators=(",", ":")) + "\n"
        for results in per_cell
        for r in results
    ]
    return sha256("".join(lines).encode())


@pytest.fixture(scope="module")
def autoencoder(small_dataset):
    cfg = TrainConfig(embed_dim=8, batch_anchors=16, epochs=3, seed=2)
    return train_autoencoder(small_dataset, cfg).params


@pytest.fixture(scope="module")
def artifacts(small_dataset, small_encoder, autoencoder):
    return EvalArtifacts(small_dataset, small_encoder, autoencoder)


class TestGoldenPipeline:
    DATASET = "ab996ab7ff8b99b64880fcbd15755bf6df5a23c1f5edb4b41d029728c8ecc1fa"
    ENCODER = "41e6810c8809fd87b4b360c3df59424dc612f78b1509a4cbed91ac628485194e"
    AUTOENCODER = "1f0ac6b4bbc4e0400f11a67ce5b38fd95879d6740a62b6eee6fde497cac9a042"
    METRICS_CSV = "1900202b40e027b0c8f26d3eeadecd08a885c7cd69ff8760da4810abbd9770dd"
    RESULTS = "b1ead21ed8ca3fde85989a404a8984d14b2aea3e379aa8e50846bc94b29d0c0a"
    SWEEP_CSV = "23f0e5e768f1de13259d8b182be9cacb9a14b43d413bc8bccd297c6d72540345"
    SWEEP_RESULTS = "e933b98aafec2b0894824ea5189c489b41c6460737b14f3a24441f40273d0193"

    def test_dataset_bytes(self, tmp_path, small_dataset):
        path = tmp_path / "ds.jsonl"
        save_dataset(small_dataset, str(path))
        assert sha256(path.read_bytes()) == self.DATASET

    def test_encoder(self, small_encoder):
        assert params_digest(small_encoder) == self.ENCODER

    def test_autoencoder_container(self, autoencoder):
        assert params_digest(autoencoder) == self.AUTOENCODER

    def test_evaluate(self, task_config, artifacts):
        table, per_cell = evaluate(list(FULL_MATRIX), 10, task_config, 5, artifacts)
        assert sha256(table.csv().encode()) == self.METRICS_CSV
        assert results_digest(per_cell) == self.RESULTS

    def test_sweep(self, task_config, artifacts):
        result, per_point = sweep(
            "obstacle_radius", [0.04, 0.05], 10, task_config, 5, artifacts
        )
        assert sha256(result.csv().encode()) == self.SWEEP_CSV
        assert results_digest(per_point) == self.SWEEP_RESULTS
