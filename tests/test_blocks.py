"""Whole-table MLP passes run in row blocks (`encoder.in_blocks`): the probe
loss and the contrastive and autoencoder index embeddings keep every bit of
one whole-table pass, and their memory does not grow with the table."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np

import slackline
from slackline import encoder
from slackline.config import TaskConfig
from slackline.encoder import (
    _forward,
    _info_nce,
    _probe_loss,
    encode_batch,
    init_mlp,
    init_params,
    model_input,
    model_layout,
)
from slackline.explore import Dataset, Episode
from slackline.planner import AutoencoderPlanner, build_index
from slackline.seeding import make_rng
from slackline.simulator import ActionPair, EnvState, PickPlace


def table_dataset(episodes: int, states_per: int = 5) -> Dataset:
    """Random states in the default task's layout; no action is executed."""
    task = TaskConfig()
    rng = make_rng(0)
    out = []
    for j in range(episodes):
        states = tuple(
            EnvState(rng.uniform(0.05, 0.55, size=(task.keypoint_count, 2)),
                     rng.uniform(0.05, 0.55, size=(task.obstacle_count, 2)))
            for _ in range(states_per))
        actions = tuple(ActionPair(PickPlace(1, 0, tuple(s.q[0]), tuple(s.q[0])))
                        for s in states[1:])
        out.append(Episode(states, actions, seed=j, dlo_length=0.6))
    return Dataset(tuple(out), (), task)


def models(task: TaskConfig):
    """An encoder and an autoencoder of the shipped sizes, untrained."""
    workspace, input_dim = model_layout(task)
    ae_sizes = (input_dim, 256, 256, 32, 256, 256, input_dim)
    return (init_params(input_dim, 32, workspace, seed=1),
            init_mlp(ae_sizes, 3, workspace, 1, 2))


def assert_blocks_match_whole_table() -> None:
    """With encoder.ROW_BLOCK at 4 or 22, the 45-row table leaves a one-row
    remainder that must join the block before it."""
    assert 45 % encoder.ROW_BLOCK == 1
    dataset = table_dataset(9)
    enc, ae = models(dataset.config)
    rows = dataset.state_table()[0]
    x = model_input(enc, rows)
    probe_rows = make_rng(1).integers(len(rows), size=(8, 6))
    probe_rows[:, 0] = len(rows) - 1
    planner = AutoencoderPlanner(ae, dataset)

    assert _probe_loss(enc, x, probe_rows) == _info_nce(
        _forward(enc, x)[0][probe_rows])[0]
    assert np.array_equal(build_index(dataset, enc).embeddings,
                          encode_batch(enc, x))
    assert np.array_equal(planner.index.embeddings, planner.latents(rows))


class TestBitIdentity:
    def test_blocks_match_whole_table(self, monkeypatch):
        for block in (4, 22):
            monkeypatch.setattr(encoder, "ROW_BLOCK", block)
            assert_blocks_match_whole_table()

    def test_blocks_match_whole_table_with_one_blas_thread(self):
        """Tier-1 runs two OpenBLAS threads (the root conftest.py); the
        benchmark and its fixtures run one, which rounds some products
        differently, so the check runs again in a one-thread process."""
        here = os.path.dirname(os.path.abspath(__file__))
        src = os.path.dirname(os.path.dirname(os.path.abspath(slackline.__file__)))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, here]))
        code = ("import slackline.encoder as e, test_blocks as t\n"
                "for block in (4, 22):\n"
                "    e.ROW_BLOCK = block\n"
                "    t.assert_blocks_match_whole_table()\n")
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr


def traced_excess(call, table_bytes: int) -> int:
    """tracemalloc's peak while `call` runs, less `table_bytes`."""
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - table_bytes


class TestMemory:
    """At 8x the states, a whole-table pass would need 8x the hidden
    activations (2 KB per state per 256-wide layer); blocked, only the
    table's own arrays grow."""

    def index_excess(self, dataset, enc) -> int:
        rows, episode, step = dataset.state_table()
        embed_bytes = len(rows) * enc.embed_dim * 8
        # the larger of the state table's own peak while it is stacked, and
        # the rows, the (episode, step) columns and the embeddings with the
        # blocks they are concatenated from
        table = max(traced_excess(dataset.state_table, 0),
                    rows.nbytes + episode.nbytes + step.nbytes + 2 * embed_bytes)
        return traced_excess(lambda: build_index(dataset, enc), table)

    def probe_excess(self, dataset, enc) -> int:
        x = model_input(enc, dataset.state_table()[0])
        probe_rows = make_rng(2).integers(len(x), size=(32, 6))
        # the embeddings with the blocks they are concatenated from
        table = 2 * len(x) * enc.embed_dim * 8
        return traced_excess(lambda: _probe_loss(enc, x, probe_rows), table)

    def test_does_not_grow_with_the_table(self, monkeypatch):
        monkeypatch.setattr(encoder, "ROW_BLOCK", 32)
        small = table_dataset(40)
        large = Dataset(small.episodes * 8, (), small.config)
        enc, _ = models(small.config)
        for excess in (self.index_excess, self.probe_excess):
            at_1x, at_8x = excess(small, enc), excess(large, enc)
            assert at_8x < 1.25 * at_1x + 16384, (excess.__name__, at_1x, at_8x)
