"""Subgoal planners.

The main planner encodes every dataset state once, retrieves the stored
state most similar to the query in the latent space, and returns that
state's episode's achieved goal: a reachable, feasibility-proven target that
points the controller in a promising direction. The ablations swap the
retrieval for a fixed draw, a per-episode random draw, geometric-space
nearest neighbor, or nearest neighbor in an autoencoder latent space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .encoder import (
    HIDDEN,
    Adam,
    MlpParams,
    encode,
    encode_batch,
    init_params,
    params_digest,
    states_matrix,
)
from .explore import Dataset
from .simulator import EnvState


class EmptyIndexError(ValueError):
    pass


@dataclass
class EmbeddingIndex:
    """One row per dataset state: unit embedding plus (episode, step), with
    per-episode achieved goals and the digest of the encoder that built it."""

    embeddings: np.ndarray
    episode_idx: np.ndarray
    step_idx: np.ndarray
    goals: tuple[EnvState, ...]
    encoder_digest: str

    def __len__(self) -> int:
        return self.embeddings.shape[0]


def build_index(dataset: Dataset, params: MlpParams) -> EmbeddingIndex:
    """Encode every state of every episode, in (episode, step) order."""
    if not dataset.episodes:
        raise EmptyIndexError("dataset has no episodes")
    states = []
    ep_idx = []
    st_idx = []
    for j, ep in enumerate(dataset.episodes):
        for t, s in enumerate(ep.states):
            states.append(s)
            ep_idx.append(j)
            st_idx.append(t)
    x = states_matrix(states, params.workspace, params.input_dim)
    z = encode_batch(params, x)
    return EmbeddingIndex(
        z,
        np.asarray(ep_idx),
        np.asarray(st_idx),
        tuple(ep.achieved_goal for ep in dataset.episodes),
        params_digest(params),
    )


def retrieve(
    index: EmbeddingIndex, params: MlpParams, query: EnvState
) -> tuple[EnvState, tuple[int, int]]:
    """Most similar stored state under exponential bilinear similarity;
    returns (its episode's achieved goal, (episode, step)). Ties break to the
    smallest (episode, step), which is the first index row."""
    if len(index) == 0:
        raise EmptyIndexError("empty embedding index")
    z = encode(params, query)
    best = int(np.argmax(index.embeddings @ z))
    j = int(index.episode_idx[best])
    t = int(index.step_idx[best])
    return index.goals[j], (j, t)


def plan_subgoal(
    index: EmbeddingIndex, params: MlpParams, query: EnvState
) -> EnvState:
    return retrieve(index, params, query)[0]


class ContrastivePlanner:
    name = "contrastive"

    def __init__(self, index: EmbeddingIndex, params: MlpParams) -> None:
        self.index = index
        self.params = params

    def reset(self, episode_seed: int) -> None:
        pass

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        goal, ident = retrieve(self.index, self.params, state)
        return goal, ident


class FixedPlanner:
    """One achieved goal drawn once per evaluation run."""

    name = "fixed"

    def __init__(self, goals: tuple[EnvState, ...], seed: int) -> None:
        if not goals:
            raise EmptyIndexError("no achieved goals to draw from")
        rng = np.random.default_rng(np.random.SeedSequence([seed, 0x666978]))
        self.choice = int(rng.integers(len(goals)))
        self.goals = goals

    def reset(self, episode_seed: int) -> None:
        pass

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        return self.goals[self.choice], (self.choice, None)


class RandomPlanner:
    """A fresh achieved goal drawn per episode."""

    name = "random"

    def __init__(self, goals: tuple[EnvState, ...], seed: int) -> None:
        if not goals:
            raise EmptyIndexError("no achieved goals to draw from")
        self.goals = goals
        self.seed = seed
        self.choice = 0

    def reset(self, episode_seed: int) -> None:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, 0x726E64, episode_seed % (2**63)])
        )
        self.choice = int(rng.integers(len(self.goals)))

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        return self.goals[self.choice], (self.choice, None)


class TemplatePlanner:
    """Nearest stored state by geometric-space L2 distance."""

    name = "template"

    def __init__(self, dataset: Dataset) -> None:
        if not dataset.episodes:
            raise EmptyIndexError("dataset has no episodes")
        flats = []
        ep_idx = []
        st_idx = []
        for j, ep in enumerate(dataset.episodes):
            for t, s in enumerate(ep.states):
                flats.append(np.concatenate([s.q.ravel(), s.o.ravel()]))
                ep_idx.append(j)
                st_idx.append(t)
        self.flat = np.stack(flats)
        self.sq_norms = np.einsum("nd,nd->n", self.flat, self.flat)
        self.episode_idx = np.asarray(ep_idx)
        self.step_idx = np.asarray(st_idx)
        self.goals = tuple(ep.achieved_goal for ep in dataset.episodes)

    def reset(self, episode_seed: int) -> None:
        pass

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        v = np.concatenate([state.q.ravel(), state.o.ravel()])
        d2 = self.sq_norms - 2.0 * (self.flat @ v) + v @ v
        best = int(np.argmin(d2))
        j = int(self.episode_idx[best])
        return self.goals[j], (j, int(self.step_idx[best]))


# Autoencoder ablation: mirrored architecture, raw (unnormalized) latent,
# mean squared self-reconstruction loss on the normalized inputs.


@dataclass
class AeParams:
    sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    latent_layer: int
    workspace: tuple[float, float]

    def encode_batch(self, x: np.ndarray) -> np.ndarray:
        h = x
        for i in range(self.latent_layer):
            h = h @ self.weights[i] + self.biases[i]
            if i < self.latent_layer - 1:
                h = np.maximum(h, 0.0)
        return h

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            # hidden layers are rectified; the latent and the output are linear
            if i != self.latent_layer - 1 and i != last:
                h = np.maximum(h, 0.0)
            acts.append(h)
        return h, acts


@dataclass
class AeReport:
    params: AeParams
    epoch_losses: list[float]


def init_autoencoder(
    input_dim: int, embed_dim: int, workspace: tuple[float, float], seed: int,
    hidden: int = HIDDEN,
) -> AeParams:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6165]))
    sizes = (input_dim, hidden, hidden, embed_dim, hidden, hidden, input_dim)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AeParams(sizes, weights, biases, latent_layer=3, workspace=workspace)


def train_autoencoder(dataset: Dataset, cfg: TrainConfig) -> AeReport:
    """Minimize mean squared reconstruction error over all dataset states."""
    task = dataset.config
    workspace = (task.workspace_width, task.workspace_height)
    input_dim = (task.keypoint_count + task.obstacle_count) * 2
    params = init_autoencoder(input_dim, cfg.embed_dim, workspace, cfg.seed)

    states = [s for ep in dataset.episodes for s in ep.states]
    x_all = states_matrix(states, workspace, input_dim)
    n = x_all.shape[0]

    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0x616574]))
    optimizer = Adam(params.weights + params.biases, cfg.learning_rate)
    losses: list[float] = []
    last = len(params.weights) - 1
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for lo in range(0, n, cfg.batch_anchors):
            x = x_all[order[lo : lo + cfg.batch_anchors]]
            recon, acts = params.forward(x)
            diff = recon - x
            loss = float(np.mean(diff * diff))
            batch_losses.append(loss)
            delta = 2.0 * diff / diff.size
            grad_w = [None] * len(params.weights)
            grad_b = [None] * len(params.biases)
            for layer in range(last, -1, -1):
                a_in = acts[layer]
                grad_w[layer] = a_in.T @ delta
                grad_b[layer] = delta.sum(axis=0)
                if layer > 0:
                    delta = delta @ params.weights[layer].T
                    if layer - 1 != params.latent_layer - 1:
                        delta = delta * (acts[layer] > 0.0)
            optimizer.step(grad_w + grad_b)
        losses.append(float(np.mean(batch_losses)))
    return AeReport(params, losses)


class AutoencoderPlanner:
    """Nearest stored state by L2 distance in the autoencoder latent space."""

    name = "autoencoder"

    def __init__(self, ae: AeParams, dataset: Dataset) -> None:
        if not dataset.episodes:
            raise EmptyIndexError("dataset has no episodes")
        states = []
        ep_idx = []
        st_idx = []
        for j, ep in enumerate(dataset.episodes):
            for t, s in enumerate(ep.states):
                states.append(s)
                ep_idx.append(j)
                st_idx.append(t)
        x = states_matrix(states, ae.workspace, ae.sizes[0])
        self.ae = ae
        self.latents = ae.encode_batch(x)
        self.sq_norms = np.einsum("nd,nd->n", self.latents, self.latents)
        self.episode_idx = np.asarray(ep_idx)
        self.step_idx = np.asarray(st_idx)
        self.goals = tuple(ep.achieved_goal for ep in dataset.episodes)

    def reset(self, episode_seed: int) -> None:
        pass

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        x = states_matrix([state], self.ae.workspace, self.ae.sizes[0])
        z = self.ae.encode_batch(x)[0]
        d2 = self.sq_norms - 2.0 * (self.latents @ z) + z @ z
        best = int(np.argmin(d2))
        j = int(self.episode_idx[best])
        return self.goals[j], (j, int(self.step_idx[best]))
