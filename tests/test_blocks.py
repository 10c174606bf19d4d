"""Training and whole-table passes keep their bits and bound their memory.

Whole-table MLP passes run in row blocks (`encoder.in_blocks`): the probe
loss and the contrastive and autoencoder index embeddings keep every bit of
one whole-table pass, and their memory does not grow with the table. The
layer, backprop and Adam steps write into arrays they own, and the probe
scores its groups in chunks: each keeps every bit of the out-of-place
expression it replaces, and the training step, the probe, the state table
and the dataset load allocate no more than their own arrays need. Training
lets go of the state table once its model input is made."""

import inspect
import os
import subprocess
import sys
import tracemalloc

import numpy as np

import slackline
from slackline import encoder
from slackline.config import TaskConfig, TrainConfig
from slackline.encoder import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    HIDDEN,
    Adam,
    _forward,
    _grad_step,
    _info_nce,
    _probe_loss,
    encode_batch,
    init_mlp,
    init_params,
    mlp_backward,
    mlp_forward,
    model_input,
    model_layout,
)
from slackline.explore import Dataset, Episode, load_dataset, save_dataset
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


def reference_forward(params, x, acts):
    """mlp_forward as the out-of-place expressions `h @ w + b` and
    `np.maximum(h, 0.0)`."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = h @ w + b
        if i != params.latent_layer - 1 and i != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h


def reference_backward(params, acts, delta):
    """mlp_backward as out-of-place expressions, `acts` left whole."""
    grad_w, grad_b = [], []
    for layer in range(len(params.weights) - 1, -1, -1):
        grad_w.insert(0, acts[layer].T @ delta)
        grad_b.insert(0, delta.sum(axis=0))
        if layer > 0:
            delta = delta @ params.weights[layer].T
            if layer != params.latent_layer:
                delta = delta * (acts[layer] > 0.0)
    return grad_w, grad_b


def reference_adam(arrays, grads_per_step, lr):
    """The arrays after Adam steps written as whole-array expressions that
    rebind the moments."""
    arrays = [a.copy() for a in arrays]
    m = [np.zeros_like(a) for a in arrays]
    v = [np.zeros_like(a) for a in arrays]
    for step, grads in enumerate(grads_per_step, start=1):
        bc1 = 1.0 - ADAM_BETA1**step
        bc2 = 1.0 - ADAM_BETA2**step
        for i, (a, g) in enumerate(zip(arrays, grads)):
            m[i] = ADAM_BETA1 * m[i] + (1 - ADAM_BETA1) * g
            v[i] = ADAM_BETA2 * v[i] + (1 - ADAM_BETA2) * g**2
            a -= lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + ADAM_EPS)
    return arrays


def assert_steps_match_out_of_place() -> None:
    """mlp_forward and mlp_backward on the encoder and autoencoder layouts,
    over a two-group, 66-row batch, and three Adam steps on random arrays."""
    rng = make_rng(3)
    for params in models(TaskConfig()):
        x = rng.uniform(0.0, 1.0, size=(66, params.input_dim))
        acts, want_acts = [x], [x]
        y = mlp_forward(params, x, acts=acts)
        want_y = reference_forward(params, x, want_acts)
        assert np.array_equal(y, want_y)
        assert all(np.array_equal(a, b) for a, b in zip(acts, want_acts))
        delta = rng.standard_normal(y.shape)
        got = mlp_backward(params, acts, delta)
        assert acts == []  # consumed
        want = reference_backward(params, want_acts, delta)
        for got_grads, want_grads in zip(got, want):
            assert all(np.array_equal(g, w) for g, w in zip(got_grads, want_grads))

    arrays = [rng.standard_normal((40, HIDDEN)), rng.standard_normal(HIDDEN)]
    grads = [[rng.standard_normal(a.shape) * 10.0**-k for a in arrays]
             for k in range(3)]
    want = reference_adam(arrays, grads, 5e-4)
    optimizer = Adam(arrays, 5e-4)
    moments = optimizer.m + optimizer.v
    for step in grads:
        optimizer.step(step)
    assert all(np.array_equal(a, w) for a, w in zip(arrays, want))
    assert all(a is b for a, b in zip(optimizer.m + optimizer.v, moments))


def assert_probe_chunks_match_whole_gather() -> None:
    """At ROW_BLOCK 4, 22 and 1024 (2, 3 and 31 groups of 33 rows per
    chunk), group counts that make one chunk, several, and several with a
    one-group remainder to fold."""
    dataset = table_dataset(9)
    enc, _ = models(dataset.config)
    x = model_input(enc, dataset.state_table()[0])
    z = _forward(enc, x)[0]
    rows = make_rng(4).integers(len(x), size=(94, 2 + TrainConfig().negatives))
    for block in (4, 22, 1024):
        encoder.ROW_BLOCK = block
        for groups in (1, 2, 3, 7, 63, 94):
            probe_rows = rows[:groups]
            assert _probe_loss(enc, x, probe_rows) == _info_nce(z[probe_rows])[0]


def assert_small_blocks_match_whole_table() -> None:
    for block in (4, 22):
        encoder.ROW_BLOCK = block
        assert_blocks_match_whole_table()


CHECKS = {
    "blocks": assert_small_blocks_match_whole_table,
    "steps": assert_steps_match_out_of_place,
    "probe": assert_probe_chunks_match_whole_gather,
}


def in_one_blas_thread(check: str) -> None:
    """Tier-1 runs two OpenBLAS threads (the root conftest.py); the
    benchmark and its fixtures run one, which rounds some products
    differently, so a check runs again in a one-thread process."""
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(os.path.abspath(slackline.__file__)))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([src, here]))
    code = f"import test_blocks as t\nt.CHECKS[{check!r}]()\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestBitIdentity:
    def test_blocks_match_whole_table(self, monkeypatch):
        monkeypatch.setattr(encoder, "ROW_BLOCK", encoder.ROW_BLOCK)
        assert_small_blocks_match_whole_table()

    def test_blocks_match_whole_table_with_one_blas_thread(self):
        in_one_blas_thread("blocks")

    def test_steps_match_out_of_place(self):
        assert_steps_match_out_of_place()

    def test_steps_match_out_of_place_with_one_blas_thread(self):
        in_one_blas_thread("steps")

    def test_probe_chunks_match_whole_gather(self, monkeypatch):
        monkeypatch.setattr(encoder, "ROW_BLOCK", encoder.ROW_BLOCK)
        assert_probe_chunks_match_whole_gather()

    def test_probe_chunks_match_whole_gather_with_one_blas_thread(self):
        in_one_blas_thread("probe")


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
        # the rows, the (episode, step) columns and the embeddings with the
        # blocks they are concatenated from
        table = rows.nbytes + episode.nbytes + step.nbytes + 2 * embed_bytes
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

    def test_grad_step_holds_the_activations_and_one_delta(self):
        """A 64-anchor batch at the shipped sizes: backprop frees each
        layer's activations as it uses them, so beside its gradients the
        step needs the three layer outputs, one 256-wide delta and slack."""
        dataset = table_dataset(40)
        enc, _ = models(dataset.config)
        x_all = model_input(enc, dataset.state_table()[0])
        groups, negatives = 64, TrainConfig().negatives
        x = x_all[make_rng(5).integers(len(x_all), size=groups * (2 + negatives))]
        grads = 8 * sum(w.size + b.size for w, b in zip(enc.weights, enc.biases))
        acts = len(x) * (HIDDEN + HIDDEN + enc.embed_dim) * 8
        delta = len(x) * HIDDEN * 8
        excess = traced_excess(lambda: _grad_step(enc, x, groups, negatives), grads)
        assert excess <= acts + delta + 65536, (excess, acts, delta)

    def test_probe_does_not_grow_with_its_groups(self):
        """The probe gathers its groups' rows a chunk at a time, so 8x the
        groups at a fixed table add only their per-group losses."""
        dataset = table_dataset(40)
        enc, _ = models(dataset.config)
        x = model_input(enc, dataset.state_table()[0])
        width = 2 + TrainConfig().negatives
        few, many = (make_rng(2).integers(len(x), size=(g, width)) for g in (64, 512))
        at_1x = traced_excess(lambda: _probe_loss(enc, x, few), 0)
        at_8x = traced_excess(lambda: _probe_loss(enc, x, many), 0)
        assert at_8x <= at_1x + 16384, (at_1x, at_8x)

    def test_state_table_holds_only_its_result(self):
        """2000 states: the rows are copied into the result state by state,
        with no per-state row on the way."""
        dataset = table_dataset(400)
        result = sum(a.nbytes for a in dataset.state_table())
        excess = traced_excess(dataset.state_table, result)
        assert excess <= 32768, (excess, result)

    def test_load_dataset_does_not_hold_the_file_text(self, tmp_path):
        """Beyond the dataset it returns, a load's transient memory stays
        below the size of the file it reads."""
        path = str(tmp_path / "ds.jsonl")
        save_dataset(table_dataset(200), path)
        tracemalloc.start()
        try:
            dataset = load_dataset(path)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(dataset.episodes) == 200
        size = os.path.getsize(path)
        # each episode is checked as its line is parsed, so the transient
        # reads about 1/18 of the file (34 KB of 632 KB)
        assert peak - retained < size // 8, (peak - retained, size)

    def test_train_drops_the_raw_state_table(self):
        """Once the model input is made from it, training keeps nothing the
        state table made but one episode index per state, which the sampler
        draws negatives from."""
        dataset = table_dataset(200)
        lines, first = inspect.getsourcelines(Dataset.state_table)
        where = inspect.getsourcefile(Dataset.state_table)
        held = []

        def progress(epoch, epochs, loss):
            traces = tracemalloc.take_snapshot().traces
            held.append(sum(t.size for t in traces
                            if t.traceback[0].filename == where
                            and first <= t.traceback[0].lineno < first + len(lines)))

        tracemalloc.start()
        try:
            encoder.train(dataset, TrainConfig(epochs=1, seed=1), progress=progress)
        finally:
            tracemalloc.stop()
        states = 200 * 5
        assert len(held) == 1 and held[0] <= 8 * states + 1024, held
