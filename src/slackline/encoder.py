"""Contrastive state encoder.

A plain two-hidden-layer MLP maps a flattened, workspace-normalized state to
a unit embedding. Training pulls together states from the same episode and
pushes apart states from different episodes with the InfoNCE objective under
exponential bilinear similarity; gradients are exact analytic backprop and
the optimizer keeps bias-corrected per-parameter first and second moments.

Everything is deterministic given the training seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .config import TrainConfig
from .explore import Dataset
from .simulator import EnvState

PARAMS_MAGIC = b"SLNC"
PARAMS_VERSION = 1
HIDDEN = 256
ZERO_NORM = 1e-12
ADAM_EPS = 1e-8
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999


class DimensionMismatchError(ValueError):
    """Input state shape does not match the encoder's input layer."""


class InsufficientDataError(ValueError):
    """Dataset cannot provide positive/negative pairs."""


class ParamsFormatError(ValueError):
    """Parameter file is malformed or has an unsupported version."""


@dataclass
class MlpParams:
    """Layer sizes, weights (fan_in x fan_out), biases, and the workspace
    extents used to normalize input coordinates."""

    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    workspace: tuple[float, float]

    @property
    def input_dim(self) -> int:
        return self.sizes[0]

    @property
    def embed_dim(self) -> int:
        return self.sizes[-1]

    def copy(self) -> "MlpParams":
        return MlpParams(
            self.sizes,
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
            self.workspace,
        )


def init_params(
    input_dim: int,
    embed_dim: int,
    workspace: tuple[float, float],
    seed: int,
    hidden: int = HIDDEN,
) -> MlpParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) initialization, zero biases."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6E6574]))
    sizes = (input_dim, hidden, hidden, embed_dim)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpParams(sizes, weights, biases, workspace)


def state_input(state: EnvState, workspace: tuple[float, float]) -> np.ndarray:
    """Flatten keypoints then obstacle centers, normalized to [0, 1] by the
    workspace extents."""
    w, h = workspace
    scale = np.array([1.0 / w, 1.0 / h])
    return np.concatenate([(state.q * scale).ravel(), (state.o * scale).ravel()])


def states_matrix(
    states: list[EnvState], workspace: tuple[float, float], input_dim: int
) -> np.ndarray:
    x = np.stack([state_input(s, workspace) for s in states])
    if x.shape[1] != input_dim:
        raise DimensionMismatchError(
            f"state inputs have dim {x.shape[1]}, encoder expects {input_dim}"
        )
    return x


def _forward(
    params: MlpParams, x: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, np.ndarray]:
    """Batch forward pass; returns (unit embeddings, hidden activations,
    raw outputs, raw norms)."""
    h = x
    acts = [x]
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(h @ w + b, 0.0)
        acts.append(h)
    y = h @ params.weights[-1] + params.biases[-1]
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    z = np.empty_like(y)
    small = norms[:, 0] < ZERO_NORM
    if small.any():
        z[small] = 0.0
        z[small, 0] = 1.0  # zero-protection: fixed first basis vector
        ok = ~small
        z[ok] = y[ok] / norms[ok]
    else:
        z = y / norms
    return z, acts, y, norms


def encode_batch(params: MlpParams, x: np.ndarray) -> np.ndarray:
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionMismatchError(
            f"input shape {x.shape} does not match encoder input "
            f"{params.input_dim}"
        )
    z, _, _, _ = _forward(params, x)
    return z


def encode(params: MlpParams, state: EnvState) -> np.ndarray:
    """Unit embedding of one state."""
    x = state_input(state, params.workspace)
    if x.shape[0] != params.input_dim:
        raise DimensionMismatchError(
            f"state gives input dim {x.shape[0]}, encoder expects "
            f"{params.input_dim}"
        )
    return encode_batch(params, x[None, :])[0]


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


def _info_nce(zg: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean InfoNCE loss over anchor groups zg of shape (groups, 2 + N, d),
    laid out as [anchor, positive, neg_1..neg_N], and the softmax over each
    group's logits (positive first)."""
    za = zg[:, 0]
    zp = zg[:, 1]
    zn = zg[:, 2:]
    pos_logit = np.einsum("gd,gd->g", za, zp)
    neg_logits = np.einsum("gnd,gd->gn", zn, za)
    logits = np.concatenate([pos_logit[:, None], neg_logits], axis=1)
    m = logits.max(axis=1, keepdims=True)
    exp = np.exp(logits - m)
    denom = exp.sum(axis=1, keepdims=True)
    loss = float(np.mean(np.log(denom)[:, 0] + m[:, 0] - pos_logit))
    return loss, exp / denom


@dataclass
class TrainReport:
    params: MlpParams
    epoch_losses: list[float]  # fixed-probe evaluation after each epoch
    batch_losses: list[float]  # mean of minibatch losses within each epoch


def _grad_step(
    params: MlpParams,
    x: np.ndarray,
    groups: int,
    negatives: int,
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean InfoNCE loss over `groups` anchor groups laid out as
    [anchor, positive, neg_1..neg_N] blocks in x, with exact gradients."""
    z, acts, y, norms = _forward(params, x)
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
    small = norms[:, 0] < ZERO_NORM
    if small.any():
        dy[small] = 0.0

    grad_w: list[np.ndarray] = [None] * len(params.weights)  # type: ignore
    grad_b: list[np.ndarray] = [None] * len(params.biases)  # type: ignore
    delta = dy
    for layer in range(len(params.weights) - 1, -1, -1):
        grad_w[layer] = acts[layer].T @ delta
        grad_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ params.weights[layer].T) * (acts[layer] > 0.0)
    return loss, grad_w, grad_b


def _probe_loss(
    params: MlpParams, x_all: np.ndarray, probe_rows: np.ndarray
) -> float:
    """Mean InfoNCE loss of the probe groups: every state is encoded once and
    the groups gather their rows from the embeddings, so the loss equals the
    one over the gathered inputs without repeating any state's pass."""
    z, _, _, _ = _forward(params, x_all)
    return _info_nce(z[probe_rows])[0]


class Adam:
    """Adam with bias-corrected first and second moments; each step updates
    the given arrays in place."""

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
        for i, (a, g) in enumerate(zip(self.arrays, grads)):
            self.m[i] = ADAM_BETA1 * self.m[i] + (1 - ADAM_BETA1) * g
            self.v[i] = ADAM_BETA2 * self.v[i] + (1 - ADAM_BETA2) * g**2
            a -= (
                self.learning_rate * (self.m[i] / bc1)
                / (np.sqrt(self.v[i] / bc2) + ADAM_EPS)
            )


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
) -> TrainReport:
    """Train the encoder on episode-based positive/negative pairs.

    Every dataset state anchors once per epoch (shuffled); its positive is a
    uniform other state of the same episode and its negatives are uniform
    states of other episodes.
    """
    if len(dataset.episodes) < 2:
        raise InsufficientDataError("need at least two episodes for negatives")
    for j, ep in enumerate(dataset.episodes):
        if len(ep.states) < 2:
            raise InsufficientDataError(f"episode {j} has fewer than 2 states")

    task = dataset.config
    workspace = (task.workspace_width, task.workspace_height)
    input_dim = (task.keypoint_count + task.obstacle_count) * 2
    params = init_params(input_dim, cfg.embed_dim, workspace, cfg.seed, hidden)

    states, ep_ids, steps = dataset.state_table()
    x_all = states_matrix(states, workspace, input_dim)
    n = len(states)

    # per-episode flat index ranges for positive sampling
    starts = np.flatnonzero(steps == 0).tolist()
    ep_ranges = list(zip(starts, starts[1:] + [n]))

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x747261]))

    # fixed probe pairs: per-epoch loss is evaluated on these, so the curve
    # reflects the parameters rather than the minibatch sampling path
    probe_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x7072]))
    probe_anchors = probe_rng.choice(n, size=min(n, 2048), replace=False)
    probe_rows = _group_rows(
        probe_rng, probe_anchors, ep_ids, ep_ranges, cfg.negatives
    )

    optimizer = Adam(params.weights + params.biases, cfg.learning_rate)
    epoch_losses: list[float] = []
    epoch_batch_means: list[float] = []

    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses: list[float] = []
        for lo in range(0, n, cfg.batch_anchors):
            anchors = order[lo : lo + cfg.batch_anchors]
            rows = _group_rows(rng, anchors, ep_ids, ep_ranges, cfg.negatives)
            loss, grad_w, grad_b = _grad_step(
                params, x_all[rows.ravel()], len(anchors), cfg.negatives
            )
            batch_losses.append(loss)
            optimizer.step(grad_w + grad_b)
        epoch_batch_means.append(float(np.mean(batch_losses)))
        epoch_losses.append(_probe_loss(params, x_all, probe_rows))
    return TrainReport(params, epoch_losses, epoch_batch_means)


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


# Persistence: binary weights plus a JSON sidecar with the train config.
# The container is shared with the autoencoder: magic, u32 version, u32
# layer count, u32 layer sizes, any extra u32 header fields, then float64
# weights and biases per layer.


def container_bytes(
    magic: bytes,
    version: int,
    sizes: tuple[int, ...],
    header: tuple[int, ...],
    weights: list[np.ndarray],
    biases: list[np.ndarray],
) -> bytes:
    out = bytearray()
    out += magic
    out += struct.pack("<I", version)
    out += struct.pack("<I", len(sizes))
    for s in sizes + header:
        out += struct.pack("<I", s)
    for w, b in zip(weights, biases):
        out += np.ascontiguousarray(w, dtype="<f8").tobytes()
        out += np.ascontiguousarray(b, dtype="<f8").tobytes()
    return bytes(out)


def read_container(
    path: str, magic: bytes, version: int, header_fields: int = 0
) -> tuple[tuple[int, ...], tuple[int, ...], list[np.ndarray], list[np.ndarray]]:
    """(sizes, extra header fields, weights, biases) of a container file;
    ParamsFormatError naming the file if it is not exactly one container."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != magic:
        raise ParamsFormatError(f"{path}: bad magic {blob[:4]!r}")
    weights = []
    biases = []
    try:
        (found,) = struct.unpack_from("<I", blob, 4)
        if found != version:
            raise ParamsFormatError(
                f"{path}: unsupported version {found} (expected {version})"
            )
        (count,) = struct.unpack_from("<I", blob, 8)
        fields = struct.unpack_from(f"<{count + header_fields}I", blob, 12)
        sizes, header = fields[:count], fields[count:]
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
    return tuple(sizes), tuple(header), weights, biases


def write_sidecar(path: str, workspace: tuple[float, float], **fields) -> None:
    """`path`.json: the workspace extents plus the given JSON fields."""
    with open(path + ".json", "w", encoding="utf-8") as fh:
        json.dump({"workspace": list(workspace), **fields}, fh, indent=1)
        fh.write("\n")


def read_sidecar_workspace(path: str) -> tuple[float, float]:
    """Workspace extents from `path`.json; ParamsFormatError naming the
    sidecar if it is missing, not JSON, or has no two-number workspace."""
    try:
        with open(path + ".json", "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        w, h = (float(v) for v in sidecar["workspace"])
    except (OSError, KeyError, TypeError, ValueError) as err:
        raise ParamsFormatError(f"{path}.json: bad sidecar: {err!r}") from err
    return (w, h)


def params_bytes(params: MlpParams) -> bytes:
    return container_bytes(
        PARAMS_MAGIC, PARAMS_VERSION, params.sizes, (), params.weights,
        params.biases,
    )


def params_digest(params: MlpParams) -> str:
    return hashlib.sha256(params_bytes(params)).hexdigest()


def save_params(
    params: MlpParams,
    path: str,
    train_config: TrainConfig | None = None,
    epoch_losses: list[float] | None = None,
) -> None:
    """Weights to `path`; the workspace, the train config and the per-epoch
    probe losses, when known, to the sidecar."""
    with open(path, "wb") as fh:
        fh.write(params_bytes(params))
    write_sidecar(
        path,
        params.workspace,
        train=asdict(train_config) if train_config is not None else None,
        epoch_losses=list(epoch_losses) if epoch_losses is not None else None,
    )


def load_params(path: str) -> MlpParams:
    sizes, _, weights, biases = read_container(path, PARAMS_MAGIC, PARAMS_VERSION)
    return MlpParams(sizes, weights, biases, read_sidecar_workspace(path))
