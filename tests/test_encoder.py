import json
import math

import numpy as np
import pytest

from slackline.config import TaskConfig, TrainConfig
from slackline.encoder import (
    Adam,
    DimensionMismatchError,
    InsufficientDataError,
    MlpParams,
    ParamsFormatError,
    encode,
    encode_batch,
    info_nce_loss,
    init_mlp,
    init_params,
    load_params,
    mlp_backward,
    mlp_forward,
    model_input,
    numerical_gradient,
    params_digest,
    save_params,
    similarity,
    train,
    _draw_negatives,
    _grad_step,
    _group_rows,
    _probe_loss,
)
from slackline.explore import Dataset, Episode
from slackline.simulator import ActionPair, EnvState, PickPlace


def tiny_net(input_dim=50, seed=3):
    return init_params(input_dim, 4, (1.0, 0.6), seed=seed, hidden=8)


def random_states(n, m=16, b=2, seed=0):
    rng = np.random.default_rng(seed)
    return [
        EnvState(rng.uniform(0.05, 0.55, size=(m, 2)), rng.uniform(0.05, 0.55, size=(b, 2)))
        for _ in range(n)
    ]


def synthetic_dataset(n_episodes=4, states_per=5, m=16, b=2, seed=0):
    """Episodes fabricated directly from random states; good enough for
    encoder-level tests that never execute actions."""
    rng = np.random.default_rng(seed)
    episodes = []
    for j in range(n_episodes):
        states = tuple(
            EnvState(
                rng.uniform(0.05, 0.55, size=(m, 2)),
                rng.uniform(0.05, 0.55, size=(b, 2)),
            )
            for _ in range(states_per)
        )
        actions = tuple(
            ActionPair(PickPlace(1, 0, tuple(s.q[0]), tuple(s.q[0])))
            for s in states[1:]
        )
        episodes.append(Episode(states, actions, seed=j, dlo_length=0.6))
    return Dataset(tuple(episodes), (), TaskConfig(obstacle_count=b))


class TestSimilarity:
    def test_identical_unit_vectors(self):
        z = np.zeros(8)
        z[0] = 1.0
        assert similarity(z, z) == pytest.approx(math.e, abs=1e-12)

    def test_opposite(self):
        z = np.zeros(8)
        z[0] = 1.0
        assert similarity(z, -z) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_orthogonal(self):
        a = np.zeros(4)
        b = np.zeros(4)
        a[0] = 1.0
        b[1] = 1.0
        assert similarity(a, b) == pytest.approx(1.0, abs=1e-12)


class TestInfoNce:
    def test_all_equal_gives_log_n_plus_one(self):
        z = np.zeros(6)
        z[0] = 1.0
        loss = info_nce_loss(z, z, np.stack([z] * 3))
        assert loss == pytest.approx(math.log(4.0), abs=1e-9)

    def test_single_opposed_negative(self):
        z = np.zeros(6)
        z[0] = 1.0
        loss = info_nce_loss(z, z, (-z)[None, :])
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)), abs=1e-9)

    def test_always_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.normal(size=(5, 6))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            assert info_nce_loss(v[0], v[1], v[2:]) > 0.0

    def test_decreases_as_positive_logit_grows(self):
        rng = np.random.default_rng(1)
        negs = rng.normal(size=(4, 6))
        negs /= np.linalg.norm(negs, axis=1, keepdims=True)
        a = np.zeros(6)
        a[0] = 1.0
        close = np.zeros(6)
        close[0] = 1.0
        far = -close
        assert info_nce_loss(a, close, negs) < info_nce_loss(a, far, negs)

    def test_requires_negative(self):
        z = np.zeros(3)
        z[0] = 1.0
        with pytest.raises(ValueError):
            info_nce_loss(z, z, np.zeros((0, 3)))


class TestEncode:
    def test_unit_norm(self):
        params = init_params(36, 16, (1.0, 0.6), seed=0)
        for state in random_states(100):
            z = encode(params, state)
            assert abs(np.linalg.norm(z) - 1.0) < 1e-9

    def test_pure_function(self):
        params = init_params(36, 16, (1.0, 0.6), seed=0)
        state = random_states(1)[0]
        assert np.array_equal(encode(params, state), encode(params, state))

    def test_zero_net_falls_back_to_basis_vector(self):
        params = init_params(36, 8, (1.0, 0.6), seed=0)
        for w in params.weights:
            w[:] = 0.0
        z = encode(params, random_states(1)[0])
        want = np.zeros(8)
        want[0] = 1.0
        assert np.array_equal(z, want)

    def test_dimension_mismatch(self):
        params = init_params(36, 8, (1.0, 0.6), seed=0)
        bad = random_states(1, m=10, b=2)[0]
        with pytest.raises(DimensionMismatchError,
                           match="state inputs have dim 24, encoder expects 36"):
            encode(params, bad)

    def test_input_normalization_uses_workspace(self):
        state = random_states(1)[0]
        params = init_params(36, 8, (1.3, 0.7), seed=0)
        x = model_input(params, state.row()[None])[0]
        scale = np.array([1.3, 0.7])
        assert np.allclose(x[: state.q.size], (state.q / scale).ravel())
        assert np.allclose(x[state.q.size :], (state.o / scale).ravel())
        # bit for bit the per-state multiply by the reciprocal extents
        inv = 1.0 / scale
        assert np.array_equal(
            x, np.concatenate([(state.q * inv).ravel(), (state.o * inv).ravel()])
        )


class TestGradients:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(11)
        params = tiny_net()
        n_params = sum(w.size for w in params.weights) + sum(
            b.size for b in params.biases
        )
        assert n_params >= 500
        groups, negatives = 4, 3
        x = rng.uniform(0.0, 1.0, size=(groups * (2 + negatives), 50))
        _, gw, gb = _grad_step(params, x, groups, negatives)
        probes = []
        pr = np.random.default_rng(7)
        seen = set()
        while len(probes) < 500:
            layer = int(pr.integers(len(params.weights)))
            kind = int(pr.integers(2))
            if kind == 0:
                idx = (
                    int(pr.integers(params.weights[layer].shape[0])),
                    int(pr.integers(params.weights[layer].shape[1])),
                )
            else:
                idx = (int(pr.integers(params.biases[layer].shape[0])),)
            key = (layer, kind, idx)
            if key in seen:
                continue
            seen.add(key)
            probes.append((layer, kind) + idx)
        numeric = numerical_gradient(params, x, groups, negatives, probes)
        worst = 0.0
        for probe, g_num in zip(probes, numeric):
            layer, kind = probe[0], probe[1]
            g_ana = gw[layer][probe[2:]] if kind == 0 else gb[layer][probe[2:]]
            rel = abs(g_ana - g_num) / max(abs(g_ana), abs(g_num), 1e-10)
            worst = max(worst, rel)
        assert worst <= 1e-4

    def test_autoencoder_matches_central_differences(self):
        """The reconstruction loss at the shipped mirrored layout with
        narrow widths, every weight and bias of every layer: the latent
        layer is the one inner layer that mlp_backward leaves unrectified."""
        sizes = (10, 8, 8, 4, 8, 8, 10)
        params = init_mlp(sizes, 3, (1.0, 0.6), seed=5, salt=1)
        x = np.random.default_rng(12).uniform(0.0, 1.0, size=(6, 10))

        def step():
            acts = [x]
            diff = mlp_forward(params, x, acts=acts) - x
            grads = mlp_backward(params, acts, 2.0 * diff / diff.size)
            return float(np.mean(diff * diff)), grads

        _, (gw, gb) = step()
        h = 1e-5
        for layer in range(len(sizes) - 1):
            for target, grad in ((params.weights[layer], gw[layer]),
                                 (params.biases[layer], gb[layer])):
                assert np.abs(grad).max() > 1e-4, (layer, grad.shape)
                for idx in np.ndindex(target.shape):
                    orig = target[idx]
                    target[idx] = orig + h
                    lp = step()[0]
                    target[idx] = orig - h
                    lm = step()[0]
                    target[idx] = orig
                    g_num = (lp - lm) / (2.0 * h)
                    err = abs(grad[idx] - g_num)
                    assert err <= 1e-4 * max(abs(grad[idx]), abs(g_num)) + 1e-9, (
                        layer, grad.shape, idx, grad[idx], g_num)


def scalar_group_rows(rng, anchors, ep_ids, ep_ranges, negatives):
    """Pair rows drawn one scalar at a time: the reference the batched draws
    must reproduce."""
    n = len(ep_ids)
    rows = np.empty((len(anchors), 2 + negatives), dtype=np.int64)
    rows[:, 0] = anchors
    for g, a in enumerate(anchors):
        j = int(ep_ids[a])
        s0, s1 = ep_ranges[j]
        p = int(rng.integers(s0, s1 - 1))
        rows[g, 1] = p + 1 if p >= a else p
        for nn in range(negatives):
            while True:
                c = int(rng.integers(n))
                if ep_ids[c] != j:
                    rows[g, 2 + nn] = c
                    break
    return rows


def episode_layout(lengths):
    ep_ids = np.repeat(np.arange(len(lengths)), lengths)
    ends = np.cumsum(lengths)
    return ep_ids, list(zip((ends - lengths).tolist(), ends.tolist()))


class TestDrawExactness:
    """The batched draws must leave the same rows and the same generator
    state as the scalar rejection loop; a change in numpy's bounded-integer
    stream fails here."""

    LAYOUTS = ([3, 4], [2, 5, 3], [6, 2, 2], [4] * 40)

    def test_negatives_match_scalar_rejection(self):
        for lengths in self.LAYOUTS:
            ep_ids, _ = episode_layout(lengths)
            n = len(ep_ids)
            for seed in range(20):
                batched = np.random.default_rng(seed)
                scalar = np.random.default_rng(seed)
                for episode in range(len(lengths)):
                    for count in (1, 7, 31):
                        got = _draw_negatives(batched, ep_ids, episode, count)
                        want = []
                        while len(want) < count:
                            c = int(scalar.integers(n))
                            if ep_ids[c] != episode:
                                want.append(c)
                        assert got.tolist() == want
                        assert (
                            batched.bit_generator.state
                            == scalar.bit_generator.state
                        )

    def test_group_rows_match_scalar_loop(self):
        for lengths in self.LAYOUTS:
            ep_ids, ranges = episode_layout(lengths)
            for seed in range(10):
                batched = np.random.default_rng(seed)
                scalar = np.random.default_rng(seed)
                anchors = batched.permutation(len(ep_ids))
                scalar.permutation(len(ep_ids))
                got = _group_rows(batched, anchors, ep_ids, ranges, 9)
                want = scalar_group_rows(scalar, anchors, ep_ids, ranges, 9)
                assert np.array_equal(got, want)
                assert batched.bit_generator.state == scalar.bit_generator.state


class TestProbeLoss:
    def test_equals_grad_step_loss_bit_for_bit(self):
        rng = np.random.default_rng(4)
        params = tiny_net()
        ep_ids, ranges = episode_layout([5, 3, 6, 4, 2])
        x_all = rng.uniform(0.0, 1.0, size=(len(ep_ids), 50))
        negatives = 6
        anchors = rng.choice(len(ep_ids), size=12, replace=False)
        rows = _group_rows(rng, anchors, ep_ids, ranges, negatives)
        want, _, _ = _grad_step(params, x_all[rows.ravel()], len(anchors), negatives)
        assert _probe_loss(params, x_all, rows) == want


class TestAdam:
    def test_first_step_moves_by_learning_rate_times_sign(self):
        a = np.array([1.0, -2.0, 0.5])
        g = np.array([0.3, -4.0, 0.0])
        Adam([a], 0.01).step([g])
        # bias correction makes the first step lr * g / (|g| + eps)
        assert np.allclose(a, [0.99, -1.99, 0.5], rtol=0, atol=1e-9)

    def test_updates_in_place_and_counts_steps(self):
        a = np.zeros(2)
        opt = Adam([a], 0.1)
        for _ in range(3):
            opt.step([np.ones(2)])
        assert opt.steps == 3
        assert np.all(a < -0.29)


class TestTrain:
    def test_deterministic(self):
        ds = synthetic_dataset()
        cfg = TrainConfig(embed_dim=8, negatives=4, batch_anchors=8, epochs=2, seed=5)
        a = train(ds, cfg, hidden=16)
        b = train(ds, cfg, hidden=16)
        assert a.epoch_losses == b.epoch_losses
        for wa, wb in zip(a.params.weights, b.params.weights):
            assert np.array_equal(wa, wb)

    def test_loss_decreases(self):
        ds = synthetic_dataset(n_episodes=6, states_per=6)
        cfg = TrainConfig(embed_dim=8, negatives=4, batch_anchors=8, epochs=5, seed=5)
        report = train(ds, cfg, hidden=16)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_embeddings_stay_normalized_after_training(self):
        ds = synthetic_dataset()
        cfg = TrainConfig(embed_dim=8, negatives=4, batch_anchors=8, epochs=2, seed=5)
        report = train(ds, cfg, hidden=16)
        for ep in ds.episodes:
            for s in ep.states:
                assert abs(np.linalg.norm(encode(report.params, s)) - 1.0) < 1e-9

    def test_insufficient_data(self):
        ds = synthetic_dataset(n_episodes=1)
        with pytest.raises(InsufficientDataError):
            train(ds, TrainConfig(epochs=1, seed=0))

    def test_short_episode_rejected(self):
        ds = synthetic_dataset(n_episodes=3, states_per=1)
        with pytest.raises(InsufficientDataError):
            train(ds, TrainConfig(epochs=1, seed=0))


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        params = init_params(36, 16, (1.0, 0.6), seed=9)
        path = str(tmp_path / "enc.bin")
        save_params(params, path, TrainConfig())
        loaded = load_params(path)
        assert loaded.sizes == params.sizes
        assert loaded.workspace == params.workspace
        for a, b in zip(loaded.weights, params.weights):
            assert np.array_equal(a, b)
        for a, b in zip(loaded.biases, params.biases):
            assert np.array_equal(a, b)
        assert params_digest(loaded) == params_digest(params)

    def test_magic_check(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ParamsFormatError):
            load_params(str(path))

    def test_version_check(self, tmp_path):
        params = init_params(36, 8, (1.0, 0.6), seed=9)
        path = str(tmp_path / "enc.bin")
        save_params(params, path, TrainConfig())
        blob = bytearray(open(path, "rb").read())
        blob[4] = 99
        open(path, "wb").write(bytes(blob))
        with pytest.raises(ParamsFormatError):
            load_params(path)

    def test_sidecar_carries_epoch_losses(self, tmp_path):
        params = init_params(36, 8, (1.0, 0.6), seed=9)
        path = str(tmp_path / "enc.bin")
        losses = [2.5, 2.25, 2.0000000000000004]
        save_params(params, path, TrainConfig(), losses)
        sidecar = json.loads(open(path + ".json").read())
        assert sidecar["epoch_losses"] == losses
        assert load_params(path).workspace == (1.0, 0.6)

    def test_reads_sidecar_without_epoch_losses(self, tmp_path):
        params = init_params(36, 8, (1.0, 0.6), seed=9)
        path = str(tmp_path / "enc.bin")
        save_params(params, path)
        with open(path + ".json", "w") as fh:
            json.dump({"workspace": [1.0, 0.6], "train": None}, fh)
        assert params_digest(load_params(path)) == params_digest(params)

    def test_sidecar_without_workspace_rejected(self, tmp_path):
        params = init_params(36, 8, (1.0, 0.6), seed=9)
        path = str(tmp_path / "enc.bin")
        save_params(params, path)
        with open(path + ".json", "w") as fh:
            json.dump({"train": None}, fh)
        with pytest.raises(ParamsFormatError, match="enc.bin.json"):
            load_params(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "enc.bin"
        path.write_bytes(b"SLNC\x01\x00")
        with pytest.raises(ParamsFormatError, match="truncated"):
            load_params(str(path))

    def test_truncation_check(self, tmp_path):
        params = init_params(36, 8, (1.0, 0.6), seed=9)
        path = str(tmp_path / "enc.bin")
        save_params(params, path, TrainConfig())
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-16])
        with pytest.raises(ParamsFormatError):
            load_params(path)


class TestSeparationProperty:
    def test_within_episode_similarity_exceeds_cross_episode(
        self, task_config, small_pool
    ):
        # train on most episodes, measure inner products on held-out ones
        from slackline.explore import Dataset, collect

        dataset, _ = collect(task_config, episodes=16, seed=777, goal_pool=list(small_pool))
        train_ds = Dataset(dataset.episodes[:12], dataset.goal_pool, dataset.config)
        held_out = dataset.episodes[12:]
        report = train(train_ds, TrainConfig(epochs=10, seed=3))
        zs = [
            np.stack([encode(report.params, s) for s in ep.states])
            for ep in held_out
        ]
        within = []
        cross = []
        for i, zi in enumerate(zs):
            sims = zi @ zi.T
            n = sims.shape[0]
            within.extend(sims[np.triu_indices(n, 1)].tolist())
            for j, zj in enumerate(zs):
                if j > i:
                    cross.extend((zi @ zj.T).ravel().tolist())
        gap = float(np.mean(within) - np.mean(cross))
        assert gap >= 0.05
