"""Subgoal planners.

The main planner encodes every dataset state once, retrieves the stored
state most similar to the query in the latent space, and returns that
state's episode's achieved goal: a reachable, feasibility-proven target that
points the controller in a promising direction. The ablations swap the
retrieval for a fixed draw, a per-episode random draw, geometric-space
nearest neighbor, or nearest neighbor in an autoencoder latent space.
The three retrieval planners embed `Dataset.state_table()`'s rows, score
them against the query and pick through `EmbeddingIndex.best`. The
contrastive and autoencoder planners normalize and embed the rows in blocks
(`encoder.in_blocks`), so building an index needs memory for the table and
its embeddings but not for a whole-table pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .config import TrainConfig
from .encoder import (
    HIDDEN,
    InsufficientDataError,
    MlpParams,
    TrainReport,
    encode,
    encode_batch,
    fit,
    in_blocks,
    init_mlp,
    mlp_backward,
    mlp_forward,
    model_input,
    model_layout,
)
from .explore import Dataset
from .policy import Planner
from .seeding import make_rng
from .simulator import EnvState


class EmptyIndexError(ValueError):
    pass


@dataclass
class EmbeddingIndex:
    """One row per dataset state, in (episode, step) order: the state as a
    planner embeds it (the encoder's unit embedding, the raw state row or
    the autoencoder latent) and its (episode, step), with the per-episode
    achieved goals; `best` turns a planner's scores of the rows into a pick."""

    embeddings: np.ndarray
    episode_idx: np.ndarray
    step_idx: np.ndarray
    goals: tuple[EnvState, ...]

    def __len__(self) -> int:
        return self.embeddings.shape[0]

    def best(self, scores: np.ndarray) -> tuple[EnvState, tuple[int, int]]:
        """(The top-scoring row's episode's achieved goal, (episode, step));
        ties break to the first row, the smallest (episode, step)."""
        if len(self) == 0:
            raise EmptyIndexError("empty embedding index")
        row = int(np.argmax(scores))
        j = int(self.episode_idx[row])
        return self.goals[j], (j, int(self.step_idx[row]))


def _index_states(
    dataset: Dataset, embed: Callable[[np.ndarray], np.ndarray]
) -> EmbeddingIndex:
    """Index every dataset state; `embed` maps the state rows to embeddings."""
    if not dataset.episodes:
        raise EmptyIndexError("dataset has no episodes")
    rows, episode_idx, step_idx = dataset.state_table()
    return EmbeddingIndex(
        embed(rows), episode_idx, step_idx, dataset.achieved_goals()
    )


def build_index(dataset: Dataset, params: MlpParams) -> EmbeddingIndex:
    """Encode every state of every episode, in (episode, step) order."""
    return _index_states(
        dataset,
        partial(in_blocks,
                lambda rows: encode_batch(params, model_input(params, rows))),
    )


def retrieve(
    index: EmbeddingIndex, params: MlpParams, query: EnvState
) -> tuple[EnvState, tuple[int, int]]:
    """Most similar stored state under exponential bilinear similarity;
    returns (its episode's achieved goal, (episode, step))."""
    return index.best(index.embeddings @ encode(params, query))


class ContrastivePlanner(Planner):
    name = "contrastive"

    def __init__(self, index: EmbeddingIndex, params: MlpParams) -> None:
        self.index = index
        self.params = params

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        return retrieve(self.index, self.params, state)


class FixedPlanner(Planner):
    """One achieved goal drawn once per evaluation run."""

    name = "fixed"

    def __init__(self, goals: tuple[EnvState, ...], seed: int) -> None:
        if not goals:
            raise EmptyIndexError("no achieved goals to draw from")
        rng = make_rng(seed, 0x666978)
        self.choice = int(rng.integers(len(goals)))
        self.goals = goals

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        return self.goals[self.choice], (self.choice, None)


class RandomPlanner(Planner):
    """A fresh achieved goal drawn per episode."""

    name = "random"

    def __init__(self, goals: tuple[EnvState, ...], seed: int) -> None:
        if not goals:
            raise EmptyIndexError("no achieved goals to draw from")
        self.goals = goals
        self.seed = seed
        self.choice = 0

    def reset(self, episode_seed: int) -> None:
        rng = make_rng(self.seed, 0x726E64, episode_seed)
        self.choice = int(rng.integers(len(self.goals)))

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        return self.goals[self.choice], (self.choice, None)


def _nearest_in(index: EmbeddingIndex) -> Callable[[np.ndarray], tuple]:
    """The pick of the index row nearest to an embedded query in squared L2
    distance, expanded as |r|^2 - 2 r.v + |v|^2 with every |r|^2 computed
    once; the scores are the negated distances."""
    e = index.embeddings
    sq_norms = np.einsum("nd,nd->n", e, e)
    return lambda v: index.best(-(sq_norms - 2.0 * (e @ v) + v @ v))


class TemplatePlanner(Planner):
    """Nearest stored state by geometric-space L2 distance."""

    name = "template"

    def __init__(self, dataset: Dataset) -> None:
        self.nearest = _nearest_in(_index_states(dataset, lambda rows: rows))

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        return self.nearest(state.row())


# Autoencoder ablation: mirrored architecture, raw (unnormalized) latent,
# mean squared self-reconstruction loss on the normalized inputs.


def train_autoencoder(
    dataset: Dataset,
    cfg: TrainConfig,
    progress: Callable[[int, int, float], None] | None = None,
) -> TrainReport:
    """Minimize mean squared reconstruction error over all dataset states.
    Each epoch's loss is its mean batch loss; `progress` is as in `fit`."""
    if not dataset.episodes:
        raise InsufficientDataError("dataset has no episodes")
    workspace, input_dim = model_layout(dataset.config)
    sizes = (input_dim, HIDDEN, HIDDEN, cfg.embed_dim, HIDDEN, HIDDEN, input_dim)
    params = init_mlp(sizes, 3, workspace, cfg.seed, 0x6165)

    x_all = model_input(params, dataset.state_table()[0])

    def batch_step(rng, rows):
        x = x_all[rows]
        acts = [x]
        diff = mlp_forward(params, x, acts=acts) - x
        grad_w, grad_b = mlp_backward(params, acts, 2.0 * diff / diff.size)
        return float(np.mean(diff * diff)), grad_w, grad_b

    return fit(params, x_all.shape[0], cfg, 0x616574, batch_step,
               progress=progress)


class AutoencoderPlanner(Planner):
    """Nearest stored state by L2 distance in the autoencoder latent space."""

    name = "autoencoder"

    def __init__(self, ae: MlpParams, dataset: Dataset) -> None:
        self.ae = ae
        self.index = _index_states(dataset, partial(in_blocks, self.latents))
        self.nearest = _nearest_in(self.index)

    def latents(self, rows: np.ndarray) -> np.ndarray:
        x = model_input(self.ae, rows)
        return mlp_forward(self.ae, x, self.ae.latent_layer)

    def plan(self, state: EnvState) -> tuple[EnvState, tuple[int, int] | None]:
        return self.nearest(self.latents(state.row()[None])[0])
