"""Golden digests of the pipeline on the session fixtures: the saved dataset,
the encoder, the autoencoder, and the evaluation and sweep outputs. They were
computed before the planners shared one state table and one retrieval index;
a refactor that moves any of them changes behaviour.

The encoder's bytes depend on the number of OpenBLAS threads: under
OPENBLAS_NUM_THREADS=1 `test_encoder` reads 935c4dc4de40... instead of the
pinned 41e6810c8809..., which 2, 3 and 4 threads all give (a (256x528) @
(528x256) product already differs between 1 and 2 threads). ENCODER is the
multi-threaded result; the other digests that depend on the encoder are
pinned at the same setting."""

import hashlib
import json

import pytest

from slackline.cli import AE_MAGIC, AE_VERSION
from slackline.config import TrainConfig
from slackline.encoder import container_bytes, params_digest
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
    METRICS_CSV = "7c9cf3edfb89353f743e0c17a94da39481becb63f05fa5a1e323f278e05ab162"
    RESULTS = "96d9ef33f7f95ba9d3d9fc547d78aac6a71d0de82a21a139b236590476a3bceb"
    SWEEP_CSV = "a2f595ff1ff33a99c01a02355c30e6f9a72fc02461f2c41a0f02840db165a546"
    SWEEP_RESULTS = "bee54c2b4d11f326cff5a040f8cc5322920a4b5eac06693438b5d70b01962897"

    def test_dataset_bytes(self, tmp_path, small_dataset):
        path = tmp_path / "ds.jsonl"
        save_dataset(small_dataset, str(path))
        assert sha256(path.read_bytes()) == self.DATASET

    def test_encoder(self, small_encoder):
        assert params_digest(small_encoder) == self.ENCODER

    def test_autoencoder_container(self, autoencoder):
        blob = container_bytes(
            AE_MAGIC, AE_VERSION, autoencoder.sizes, (autoencoder.latent_layer,),
            autoencoder.weights, autoencoder.biases,
        )
        assert sha256(blob) == self.AUTOENCODER

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
