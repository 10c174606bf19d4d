"""Contrastive encoder, and the MLP and training loop it shares with the autoencoder.

A plain two-hidden-layer MLP maps a workspace-scaled state row (`model_input`)
to a unit embedding. Training pulls together states from the same episode and
pushes apart states from different episodes with the InfoNCE objective under
exponential bilinear similarity; gradients are exact analytic backprop and
the optimizer keeps bias-corrected per-parameter first and second moments.

A pass over the whole state table (the per-epoch probe here, the planners'
index embeddings) runs through `in_blocks`, ROW_BLOCK rows at a time, so its
memory depends on the block and the batch, not on the dataset; each output
row keeps the bits of one whole-table call. Training updates in place what
it can (layer outputs, backprop deltas, Adam's moments) and backprop frees
each activation once used; each in-place operation is the IEEE operation of
the expression it replaces, so the bits do not move.

Everything is deterministic given the training seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .config import TaskConfig, TrainConfig
from .explore import Dataset
from .seeding import make_rng
from .simulator import EnvState

PARAMS_MAGIC = b"SLNC"
AE_MAGIC = b"SLAE"
PARAMS_VERSION = 1
HIDDEN = 256
ZERO_NORM = 1e-12
ADAM_EPS = 1e-8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ROW_BLOCK = 1024  # rows per block of a whole-table pass; at least 2


class DimensionMismatchError(ValueError):
    """Input state shape does not match the encoder's input layer."""


class InsufficientDataError(ValueError):
    """Dataset cannot provide positive/negative pairs."""


class ParamsFormatError(ValueError):
    """Parameter file is malformed or has an unsupported version."""


@dataclass
class MlpParams:
    """Layer sizes, weights (fan_in x fan_out), biases, the workspace
    extents used to normalize input coordinates, and the number of layers up
    to the latent code: the encoder's latent is its output, the
    autoencoder's an inner layer. Only hidden layers are rectified."""

    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    workspace: tuple[float, float]
    latent_layer: int

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def embed_dim(self) -> int:
        return self.sizes[self.latent_layer]


def init_mlp(
    sizes: tuple[int, ...],
    latent_layer: int,
    workspace: tuple[float, float],
    seed: int,
    salt: int,
) -> MlpParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights drawn from (seed, salt),
    zero biases."""
    rng = make_rng(seed, salt)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, weights, biases, workspace, latent_layer)


def init_params(
    input_dim: int,
    embed_dim: int,
    workspace: tuple[float, float],
    seed: int,
    hidden: int = HIDDEN,
) -> MlpParams:
    """The encoder before training."""
    return init_mlp((input_dim, hidden, hidden, embed_dim), 3, workspace, seed,
                    0x6E6574)


def mlp_forward(
    params: MlpParams,
    x: np.ndarray,
    layers: int | None = None,
    acts: list[np.ndarray] | None = None,
) -> np.ndarray:
    """The batch x through the first `layers` layers, all by default. Each
    layer's output is appended to `acts` when it is given, for mlp_backward;
    inference keeps none. The bias and the rectifier are applied in place on
    the product, the same IEEE operations as `h @ w + b` and
    `np.maximum(h, 0.0)` without their two extra arrays per layer."""
    h = x
    last = len(params.weights) - 1
    for i, (w, b) in enumerate(zip(params.weights[:layers], params.biases[:layers])):
        h = h @ w
        h += b
        if i != params.latent_layer - 1 and i != last:
            np.maximum(h, 0.0, out=h)
        if acts is not None:
            acts.append(h)
    return h


def mlp_backward(
    params: MlpParams, acts: list[np.ndarray], delta: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Weight and bias gradients, given d loss / d output `delta` and the
    batch followed by the layer outputs that mlp_forward kept in `acts`.

    `acts` is consumed: each layer's input leaves the list once its weight
    gradient and its rectifier mask are taken, so a layer's activations are
    freed before the next delta is made, unless the caller holds them too.
    The mask is applied in place, as `delta * mask` would compute it."""
    grad_w: list[np.ndarray] = [None] * len(params.weights)  # type: ignore
    grad_b: list[np.ndarray] = [None] * len(params.biases)  # type: ignore
    del acts[len(params.weights):]  # the output plays no part
    for layer in range(len(params.weights) - 1, -1, -1):
        a = acts.pop()
        grad_w[layer] = a.T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            mask = a > 0.0 if layer != params.latent_layer else None
            del a
            delta = delta @ params.weights[layer].T
            if mask is not None:
                delta *= mask
    return grad_w, grad_b


def model_layout(task: TaskConfig) -> tuple[tuple[float, float], int]:
    """A task's (workspace extents, model input size), as model_input reads it."""
    workspace = (task.workspace_width, task.workspace_height)
    return workspace, (task.keypoint_count + task.obstacle_count) * 2


def model_input(params: MlpParams, rows: np.ndarray) -> np.ndarray:
    """The model's input for stacked `EnvState.row()`s: every x divided by
    the workspace width and every y by its height, into [0, 1]."""
    if rows.shape[1] != params.input_dim:
        raise DimensionMismatchError(
            f"state inputs have dim {rows.shape[1]}, encoder expects "
            f"{params.input_dim}"
        )
    w, h = params.workspace
    return rows * np.tile([1.0 / w, 1.0 / h], params.input_dim // 2)


def in_blocks(
    fn: Callable[[np.ndarray], np.ndarray],
    table: np.ndarray,
    size: int | None = None,
) -> np.ndarray:
    """The row-wise `fn` applied to `table` `size` (by default ROW_BLOCK,
    at least 2) rows at a time, the results concatenated. A one-row
    remainder joins the block before it: numpy runs a one-row product
    through BLAS's matrix-vector path, which rounds differently, while a
    block of two or more rows gives every row the bits of one call on the
    whole table."""
    n = len(table)
    size = ROW_BLOCK if size is None else size
    cuts = list(range(size, n, size))
    if cuts and n - cuts[-1] == 1:
        cuts.pop()
    return np.concatenate([fn(block) for block in np.split(table, cuts)])


def _forward(
    params: MlpParams, x: np.ndarray, acts: list[np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Batch forward pass; returns (unit embeddings, raw output norms).
    Layer outputs go to `acts` as mlp_forward keeps them."""
    y = mlp_forward(params, x, acts=acts)
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    z = np.empty_like(y)
    small = norms[:, 0] < ZERO_NORM
    z[small] = 0.0
    z[small, 0] = 1.0  # zero-protection: fixed first basis vector
    ok = ~small
    z[ok] = y[ok] / norms[ok]
    return z, norms


def encode_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match encoder input "
            f"{params.input_dim}"
        )
    return _forward(params, x)[0]


def encode(params: MlpParams, state: EnvState) -> np.ndarray:
    """Unit embedding of one state."""
    return encode_batch(params, model_input(params, state.row()[None]))[0]


def similarity(z1: np.ndarray, z2: np.ndarray) -> float:
    """Exponential bilinear similarity of two unit embeddings."""
    return float(np.exp(np.dot(z1, z2)))


def info_nce_loss(
    anchor: np.ndarray, positive: np.ndarray, negatives: np.ndarray
) -> float:
    """-log softmax of the positive logit against positive plus negatives,
    evaluated in log space."""
    negatives = np.atleast_2d(negatives)
    if negatives.shape[0] < 1:
        raise ValueError("need at least one negative")
    return _info_nce(np.vstack([anchor, positive, negatives])[None])[0]


def _group_nce(zg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-group InfoNCE losses of anchor groups zg of shape (groups, 2 + N,
    d), laid out as [anchor, positive, neg_1..neg_N], and the softmax over
    each group's logits (positive first), each group's from its rows alone."""
    za = zg[:, 0]
    zp = zg[:, 1]
    zn = zg[:, 2:]
    pos_logit = np.einsum("gd,gd->g", za, zp)
    neg_logits = np.einsum("gnd,gd->gn", zn, za)
    logits = np.concatenate([pos_logit[:, None], neg_logits], axis=1)
    m = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - m)
    denom = exp.sum(axis=1, keepdims=True)
    return np.log(denom)[:, 0] + m[:, 0] - pos_logit, exp / denom


def _info_nce(zg: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean InfoNCE loss over anchor groups zg, laid out as in `_group_nce`,
    and the softmax over each group's logits."""
    losses, probs = _group_nce(zg)
    return float(np.mean(losses)), probs


def _grad_step(
    params: MlpParams,
    x: np.ndarray,
    groups: int,
    negatives: int,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean InfoNCE loss over `groups` anchor groups laid out as
    [anchor, positive, neg_1..neg_N] blocks in x, with exact gradients."""
    acts = [x]
    z, norms = _forward(params, x, acts)
    d = z.shape[1]
    zg = z.reshape(groups, 2 + negatives, d)
    za = zg[:, 0]
    zp = zg[:, 1]
    zn = zg[:, 2:]
    loss, probs = _info_nce(zg)

    # d loss / d logits, averaged over groups
    dlogits = probs / groups
    dlogits[:, 0] -= 1.0 / groups

    dz = np.empty_like(zg)
    dz[:, 0] = dlogits[:, 0:1] * zp + np.einsum("gn,gnd->gd", dlogits[:, 1:], zn)
    dz[:, 1] = dlogits[:, 0:1] * za
    dz[:, 2:] = dlogits[:, 1:, None] * za[:, None, :]
    dz = dz.reshape(-1, d)

    # through the normalization: z = y / |y|
    dy = (dz - (dz * z).sum(axis=1, keepdims=True) * z) / norms
    dy[norms[:, 0] < ZERO_NORM] = 0.0
    grad_w, grad_b = mlp_backward(params, acts, dy)
    return loss, grad_w, grad_b


def _probe_loss(
    params: MlpParams, x_all: np.ndarray, probe_rows: np.ndarray
) -> float:
    """Mean InfoNCE loss of the probe groups: every state is encoded once, in
    blocks, and the groups gather their rows from the embeddings, so the loss
    equals the one over the gathered inputs without repeating any state's
    pass. The groups are scored in `in_blocks` chunks of about ROW_BLOCK
    gathered rows, each gathering only its own, and the loss is the mean of
    their per-group losses, the vector `_info_nce` averages over one gather."""
    z = in_blocks(lambda x: _forward(params, x)[0], x_all)
    groups = max(2, ROW_BLOCK // probe_rows.shape[1])
    return float(np.mean(in_blocks(lambda rows: _group_nce(z[rows])[0],
                                   probe_rows, groups)))


class Adam:
    """Adam with bias-corrected first and second moments; each step updates
    the given arrays and the moments in place, by the IEEE operations, in
    order, of `a -= lr * (m / bc1) / (sqrt(v / bc2) + eps)` after
    `m = b1 m + (1 - b1) g` and `v = b2 v + (1 - b2) g**2`."""

    def __init__(self, arrays: list[np.ndarray], learning_rate: float) -> None:
        self.arrays = arrays
        self.learning_rate = learning_rate
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.steps = 0

    def step(self, grads: list[np.ndarray]) -> None:
        self.steps += 1
        bc1 = 1.0 - ADAM_BETA1**self.steps
        bc2 = 1.0 - ADAM_BETA2**self.steps
        for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            t = np.square(g)
            t *= 1 - ADAM_BETA2
            v += t
            s = m / bc1
            s *= self.learning_rate
            d = np.divide(v, bc2, out=t)
            np.sqrt(d, out=d)
            d += ADAM_EPS
            s /= d
            a -= s


@dataclass
class TrainReport:
    params: MlpParams
    epoch_losses: list[float]


def fit(
    params: MlpParams,
    n: int,
    cfg: TrainConfig,
    salt: int,
    batch_step: Callable[[np.random.Generator, np.ndarray], tuple[float, list, list]],
    probe: Callable[[], float] | None = None,
    progress: Callable[[int, int, float], None] | None = None,
) -> TrainReport:
    """Train `params` in place with Adam: cfg.epochs passes over `n` rows,
    shuffled in batches of cfg.batch_anchors by the generator of (cfg.seed,
    salt). `batch_step(that generator, rows)` returns a batch's (loss, weight
    gradients, bias gradients). An epoch's loss is `probe()`, or without a
    probe its mean batch loss; `progress`, when given, is called after each
    epoch with (epoch, epochs, loss)."""
    rng = make_rng(cfg.seed, salt)
    optimizer = Adam(params.weights + params.biases, cfg.learning_rate)
    epoch_losses: list[float] = []
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, cfg.batch_anchors):
            loss, grad_w, grad_b = batch_step(rng, order[lo : lo + cfg.batch_anchors])
            batch_losses.append(loss)
            optimizer.step(grad_w + grad_b)
        epoch_losses.append(float(np.mean(batch_losses)) if probe is None else probe())
        if progress is not None:
            progress(epoch, cfg.epochs, epoch_losses[-1])
    return TrainReport(params, epoch_losses)


def _draw_negatives(
    rng: np.random.Generator, ep_ids: np.ndarray, episode: int, count: int
) -> np.ndarray:
    """`count` uniform flat indices of states outside `episode`.

    Rejection sampling, a batch at a time: each call draws only the
    shortfall, so no value past the last accepted one is drawn. For ranges
    below 2**32, rng.integers(n, size=k) consumes the stream as k scalar
    rng.integers(n) calls do, so the indices and the generator's final state
    equal those of drawing one scalar at a time until `count` pass.
    """
    n = len(ep_ids)
    kept = np.empty(0, dtype=np.int64)
    while len(kept) < count:
        c = rng.integers(n, size=count - len(kept))
        kept = np.concatenate([kept, c[ep_ids[c] != episode]])
    return kept


def _group_rows(
    rng: np.random.Generator,
    anchors: np.ndarray,
    ep_ids: np.ndarray,
    ep_ranges: list[tuple[int, int]],
    negatives: int,
) -> np.ndarray:
    """Flat state indices [anchor, positive, neg_1..neg_N] per anchor: the
    positive is a uniform other state of the anchor's episode, the negatives
    uniform states of other episodes."""
    rows = np.empty((len(anchors), 2 + negatives), dtype=np.int64)
    rows[:, 0] = anchors
    for g, a in enumerate(anchors):
        j = int(ep_ids[a])
        s0, s1 = ep_ranges[j]
        p = int(rng.integers(s0, s1 - 1))
        if p >= a:
            p += 1  # skip the anchor itself
        rows[g, 1] = p
        rows[g, 2:] = _draw_negatives(rng, ep_ids, j, negatives)
    return rows


def train(
    dataset: Dataset,
    cfg: TrainConfig,
    hidden: int = HIDDEN,
    progress: Callable[[int, int, float], None] | None = None,
) -> TrainReport:
    """Train the encoder on episode-based positive/negative pairs.

    Every dataset state anchors once per epoch (shuffled); its positive is a
    uniform other state of the same episode and its negatives are uniform
    states of other episodes. `progress`, when given, is called after each
    epoch with (epoch, epochs, probe loss).
    """
    if len(dataset.episodes) < 2:
        raise InsufficientDataError("need at least two episodes for negatives")
    for j, ep in enumerate(dataset.episodes):
        if len(ep.states) < 2:
            raise InsufficientDataError(f"episode {j} has fewer than 2 states")

    workspace, input_dim = model_layout(dataset.config)
    params = init_params(input_dim, cfg.embed_dim, workspace, cfg.seed, hidden)

    rows, ep_ids, steps = dataset.state_table()
    x_all = model_input(params, rows)
    n = len(rows)

    # per-episode flat index ranges for positive sampling
    starts = np.flatnonzero(steps == 0).tolist()
    ep_ranges = list(zip(starts, starts[1:] + [n]))
    del rows, steps  # training reads x_all, ep_ids and ep_ranges only

    # fixed probe pairs: per-epoch loss is evaluated on these, so the curve
    # reflects the parameters rather than the minibatch sampling path
    probe_rng = make_rng(cfg.seed, 0x7072)
    probe_anchors = probe_rng.choice(n, size=min(n, 2048), replace=False)
    probe_rows = _group_rows(
        probe_rng, probe_anchors, ep_ids, ep_ranges, cfg.negatives
    )

    def batch_step(rng, anchors):
        rows = _group_rows(rng, anchors, ep_ids, ep_ranges, cfg.negatives)
        return _grad_step(params, x_all[rows.ravel()], len(anchors), cfg.negatives)

    return fit(params, n, cfg, 0x747261, batch_step,
               lambda: _probe_loss(params, x_all, probe_rows), progress)


def numerical_gradient(
    params: MlpParams,
    x: np.ndarray,
    groups: int,
    negatives: int,
    probes: list[tuple[int, int, ...]],
    h: float = 1e-5,
) -> list[float]:
    """Central finite differences of the batch loss for probe coordinates
    given as (layer, kind, index...) with kind 0 = weight, 1 = bias."""
    out = []
    for probe in probes:
        layer, kind = probe[0], probe[1]
        target = params.weights[layer] if kind == 0 else params.biases[layer]
        idx = probe[2:]
        orig = target[idx]
        target[idx] = orig + h
        lp, _, _ = _grad_step(params, x, groups, negatives)
        target[idx] = orig - h
        lm, _, _ = _grad_step(params, x, groups, negatives)
        target[idx] = orig
        out.append((lp - lm) / (2.0 * h))
    return out


# Persistence: binary weights plus a JSON sidecar with the workspace, the
# train config and the per-epoch losses. One container serves both models:
# magic, u32 version, u32 layer count, u32 layer sizes, the u32 latent layer
# for an autoencoder (SLAE; an encoder, SLNC, has no such field), then
# float64 weights and biases per layer.


def params_bytes(params: MlpParams) -> bytes:
    """The file container; where the latent sits decides its form."""
    header = [PARAMS_VERSION, len(params.sizes), *params.sizes]
    if params.latent_layer == len(params.weights):
        magic = PARAMS_MAGIC
    else:
        magic = AE_MAGIC
        header.append(params.latent_layer)
    out = bytearray(magic + struct.pack(f"<{len(header)}I", *header))
    for w, b in zip(params.weights, params.biases):
        out += np.ascontiguousarray(w, dtype="<f8").tobytes()
        out += np.ascontiguousarray(b, dtype="<f8").tobytes()
    return bytes(out)


def params_digest(params: MlpParams) -> str:
    return hashlib.sha256(params_bytes(params)).hexdigest()


def save_params(
    params: MlpParams,
    path: str,
    train_config: TrainConfig | None = None,
    epoch_losses: list[float] | None = None,
) -> None:
    """Weights to `path`; the workspace, the train config and the per-epoch
    losses (the encoder's probe losses, the autoencoder's reconstruction
    losses), when known, to the sidecar `path`.json."""
    with open(path, "wb") as fh:
        fh.write(params_bytes(params))
    sidecar = {
        "workspace": list(params.workspace),
        "train": asdict(train_config) if train_config is not None else None,
        "epoch_losses": list(epoch_losses) if epoch_losses is not None else None,
    }
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")


def load_params(path: str, autoencoder: bool = False) -> MlpParams:
    """The encoder saved at `path`, or with `autoencoder` the autoencoder.
    The error names the file if it is missing, holds the other model, is
    malformed or holds a NaN or infinite weight or bias, and the sidecar if
    that has no two-number workspace."""
    model = "autoencoder" if autoencoder else "encoder"
    if not os.path.exists(path):
        raise FileNotFoundError(f"{model} file not found: {path}")
    with open(path, "rb") as fh:
        blob = fh.read()
    magic = AE_MAGIC if autoencoder else PARAMS_MAGIC
    if blob[:4] != magic:
        raise ParamsFormatError(f"{path}: bad magic {blob[:4]!r}")
    weights = []
    biases = []
    try:
        (version,) = struct.unpack_from("<I", blob, 4)
        if version != PARAMS_VERSION:
            raise ParamsFormatError(
                f"{path}: unsupported version {version} (expected {PARAMS_VERSION})"
            )
        (count,) = struct.unpack_from("<I", blob, 8)
        fields = struct.unpack_from(f"<{count + int(autoencoder)}I", blob, 12)
        sizes = fields[:count]
        offset = 12 + 4 * len(fields)
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = np.frombuffer(
                blob, dtype="<f8", count=fan_in * fan_out, offset=offset
            )
            offset += 8 * fan_in * fan_out
            b = np.frombuffer(blob, dtype="<f8", count=fan_out, offset=offset)
            offset += 8 * fan_out
            weights.append(w.reshape(fan_in, fan_out).copy())
            biases.append(b.copy())
    except ParamsFormatError:
        raise
    except (struct.error, ValueError) as err:
        raise ParamsFormatError(f"{path}: truncated parameter file") from err
    if offset != len(blob):
        raise ParamsFormatError(f"{path}: trailing or missing bytes")
    if not all(np.isfinite(a).all() for a in weights + biases):
        raise ParamsFormatError(f"{path}: a weight or bias is NaN or infinite")
    latent_layer = count - 1
    if autoencoder:
        latent_layer = fields[-1]
        if not 0 < latent_layer < count - 1:
            raise ParamsFormatError(
                f"{path}: latent layer {latent_layer} outside {count} layers"
            )
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            w, h = (float(v) for v in json.load(fh)["workspace"])
    except (OSError, KeyError, TypeError, ValueError) as err:
        raise ParamsFormatError(f"{path}.json: bad sidecar: {err!r}") from err
    return MlpParams(sizes, weights, biases, (w, h), latent_layer)
