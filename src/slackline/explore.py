"""Automatic data collection.

A goal pool is built first by wandering random environments with arbitrary
feasible drags until the goal predicate holds. Collection then runs batches
of random correspondence-guided rollouts per fresh environment (several pool
goals, several trials each) and keeps only the successful rollout with the
minimum horizon, which filters the arbitrary exploration into a dataset of
efficient successful episodes.

States recorded into episodes are rounded to the 9-significant-digit file
precision as they are produced, so saved datasets replay bit-exactly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .config import TaskConfig, _apply_fields
from .controller import feasible_correspondence_actions, make_pickplace
from .geometry import sequence_feasible_xy
from .seeding import derive_seed, make_rng
from .simulator import (
    ActionPair,
    EnvState,
    GenerationError,
    execute,
    generate_env,
    goal_reached,
    quantize,
)

DATASET_SCHEMA = "slackline-ds/1"

DEFAULT_GOAL_POOL = 200
DEFAULT_EPISODES = 1000
DEFAULT_GOALS_PER_ENV = 3
DEFAULT_TRIALS_PER_GOAL = 3

# random wandering may take this many actions before reaching the goal space
GOAL_ROLLOUT_FACTOR = 50
# candidate draws before a feasible arbitrary action is declared absent
ARBITRARY_TRIES = 200
# environments rejected per goal-pool entry before giving up
POOL_ENV_TRIES = 100


class MalformedDatasetError(ValueError):
    """Dataset file cannot be parsed; the message carries the line number."""


class DatasetVersionError(ValueError):
    """Dataset file declares an unsupported schema version."""


@dataclass(frozen=True)
class Episode:
    """One successful trajectory: states[t+1] = execute(states[t], actions[t])
    (after file-precision rounding) and the last state lies in the goal
    space."""

    states: tuple[EnvState, ...]
    actions: tuple[ActionPair, ...]
    seed: int
    dlo_length: float

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions) + 1:
            raise ValueError(
                f"{len(self.states)} states vs {len(self.actions)} actions"
            )

    @property
    def horizon(self) -> int:
        return len(self.actions)

    @property
    def achieved_goal(self) -> EnvState:
        return self.states[-1]

    def to_obj(self) -> dict:
        return {
            "seed": self.seed,
            "lambda": quantize(self.dlo_length),
            "states": [s.to_obj() for s in self.states],
            "actions": [a.to_obj() for a in self.actions],
        }

    @staticmethod
    def from_obj(obj: dict) -> "Episode":
        return Episode(
            tuple(EnvState.from_obj(s) for s in obj["states"]),
            tuple(ActionPair.from_obj(a) for a in obj["actions"]),
            int(obj["seed"]),
            float(obj["lambda"]),
        )


@dataclass(frozen=True)
class Dataset:
    episodes: tuple[Episode, ...]
    goal_pool: tuple[EnvState, ...]
    config: TaskConfig

    def state_table(self) -> tuple[list[EnvState], np.ndarray, np.ndarray]:
        """Every state in (episode, step) order, with the episode index and
        the step index of each row."""
        lengths = [len(ep.states) for ep in self.episodes]
        episode = np.repeat(np.arange(len(lengths)), lengths)
        step = np.arange(len(episode)) - np.searchsorted(episode, episode)
        return [s for ep in self.episodes for s in ep.states], episode, step

    def achieved_goals(self) -> tuple[EnvState, ...]:
        return tuple(ep.achieved_goal for ep in self.episodes)


@dataclass
class CollectReport:
    environments: int = 0
    rollouts: int = 0
    successes: int = 0

    @property
    def success_ratio(self) -> float:
        return self.successes / self.rollouts if self.rollouts else 0.0


def _arbitrary_action(
    state: EnvState, config: TaskConfig, rng: np.random.Generator
) -> ActionPair | None:
    """Random feasible single-arm drag with arbitrary direction and
    magnitude; None when no feasible candidate shows up."""
    m = state.keypoint_count
    obstacles = [(float(x), float(y)) for x, y in state.o]
    for _ in range(ARBITRARY_TRIES):
        k = int(rng.integers(m))
        arm_id = int(rng.integers(1, 3))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        step = rng.uniform(0.0, config.max_step)
        px = float(state.q[k, 0])
        py = float(state.q[k, 1])
        place = (quantize(px + step * math.cos(angle)),
                 quantize(py + step * math.sin(angle)))
        bx, by = config.arm_bases[arm_id - 1]
        if sequence_feasible_xy(
            px, py, place[0], place[1], bx, by,
            config.reach_min, config.reach_max,
            obstacles, config.obstacle_clearance,
        ):
            return ActionPair(make_pickplace(arm_id, k, state, place), None)
    return None


def build_goal_pool(
    config: TaskConfig, count: int = DEFAULT_GOAL_POOL, seed: int = 0
) -> list[EnvState]:
    """Wander `count` random environments with arbitrary feasible drags until
    each reaches the goal space; returns the reached states."""
    if count < 1:
        raise ValueError("goal pool count must be >= 1")
    pool: list[EnvState] = []
    budget = GOAL_ROLLOUT_FACTOR * config.horizon_max
    for g in range(count):
        entry: EnvState | None = None
        for attempt in range(POOL_ENV_TRIES):
            env_seed = derive_seed(seed, "goal-pool", g, attempt)
            state = generate_env(config, env_seed).quantized()
            rng = make_rng(seed, "goal-pool-actions", g, attempt)
            for _ in range(budget):
                action = _arbitrary_action(state, config, rng)
                if action is None:
                    break  # no feasible drag; try a fresh environment
                state = execute(state, action, config).quantized()
                if goal_reached(state, config):
                    entry = state
                    break
            if entry is not None:
                break
        if entry is None:
            raise GenerationError(
                f"goal-pool entry {g}: no rollout reached the goal space in "
                f"{POOL_ENV_TRIES} environments x {budget} actions "
                f"(inconsistent task config?)"
            )
        pool.append(entry)
    return pool


def _guided_rollout(
    env: EnvState,
    goal: EnvState,
    config: TaskConfig,
    rng: np.random.Generator,
) -> tuple[list[EnvState], list[ActionPair], bool]:
    """Random correspondence-guided rollout: repeatedly drag a uniformly
    chosen feasible keypoint toward its counterpart in the pool goal."""
    states = [env]
    actions: list[ActionPair] = []
    state = env
    for _ in range(config.horizon_max):
        candidates = feasible_correspondence_actions(state, goal, config)
        if not candidates:
            return states, actions, False
        arm_id, k, place = candidates[int(rng.integers(len(candidates)))]
        action = ActionPair(make_pickplace(arm_id, k, state, place), None)
        state = execute(state, action, config).quantized()
        states.append(state)
        actions.append(action)
        if goal_reached(state, config):
            return states, actions, True
    return states, actions, False


def collect(
    config: TaskConfig,
    episodes: int = DEFAULT_EPISODES,
    goals_per_env: int = DEFAULT_GOALS_PER_ENV,
    trials_per_goal: int = DEFAULT_TRIALS_PER_GOAL,
    seed: int = 0,
    goal_pool: list[EnvState] | None = None,
    pool_size: int = DEFAULT_GOAL_POOL,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[Dataset, CollectReport]:
    """Collect `episodes` successful min-horizon episodes.

    Per fresh environment: draw `goals_per_env` pool goals, run
    `trials_per_goal` random rollouts toward each, keep the shortest success,
    discard the environment when every rollout fails.
    """
    if episodes < 1:
        raise ValueError("episodes must be >= 1")
    if goals_per_env < 1 or trials_per_goal < 1:
        raise ValueError("goals_per_env and trials_per_goal must be >= 1")
    if goal_pool is None:
        goal_pool = build_goal_pool(config, pool_size, derive_seed(seed, "pool"))
    report = CollectReport()
    kept: list[Episode] = []
    env_counter = 0
    while len(kept) < episodes:
        env_seed = derive_seed(seed, "env", env_counter)
        env = generate_env(config, env_seed).quantized()
        pick_rng = make_rng(seed, "goal-choice", env_counter)
        replace = goals_per_env > len(goal_pool)
        goal_ids = pick_rng.choice(len(goal_pool), size=goals_per_env,
                                   replace=replace)
        best: tuple[list[EnvState], list[ActionPair]] | None = None
        for p, gid in enumerate(map(int, goal_ids)):
            for c in range(trials_per_goal):
                rng = make_rng(seed, "rollout", env_counter, p, c)
                states, actions, ok = _guided_rollout(
                    env, goal_pool[gid], config, rng
                )
                report.rollouts += 1
                if ok:
                    report.successes += 1
                    if best is None or len(actions) < len(best[1]):
                        best = (states, actions)
        report.environments += 1
        env_counter += 1
        if best is not None:
            states, actions = best
            kept.append(
                Episode(
                    tuple(states),
                    tuple(actions),
                    seed=env_seed,
                    dlo_length=quantize(env.dlo_length()),
                )
            )
            if progress is not None:
                progress(len(kept), episodes)
    return (
        Dataset(tuple(kept), tuple(goal_pool), config),
        report,
    )


# Persistence: JSON Lines with a single header line.


def save_dataset(dataset: Dataset, path: str) -> None:
    header = {
        "schema": DATASET_SCHEMA,
        "config": asdict(dataset.config),
        "episodes": len(dataset.episodes),
        "goals": [s.to_obj() for s in dataset.goal_pool],
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for ep in dataset.episodes:
            fh.write(json.dumps(ep.to_obj(), separators=(",", ":")) + "\n")
    os.replace(tmp, path)


def load_dataset(path: str) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise MalformedDatasetError(f"{path}:1: empty dataset file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as err:
        raise MalformedDatasetError(f"{path}:1: {err}") from err
    if not isinstance(header, dict) or "schema" not in header:
        raise MalformedDatasetError(f"{path}:1: header missing 'schema'")
    if header["schema"] != DATASET_SCHEMA:
        raise DatasetVersionError(
            f"{path}: schema {header['schema']!r} unsupported "
            f"(expected {DATASET_SCHEMA!r})"
        )
    try:
        config = _apply_fields(TaskConfig(), header["config"], f"{path}: config")
        goals = tuple(EnvState.from_obj(s) for s in header["goals"])
        declared = int(header["episodes"])
    except (KeyError, TypeError, ValueError) as err:
        raise MalformedDatasetError(f"{path}:1: bad header: {err}") from err
    episodes: list[Episode] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            episodes.append(Episode.from_obj(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise MalformedDatasetError(f"{path}:{lineno}: {err}") from err
    if len(episodes) != declared:
        raise MalformedDatasetError(
            f"{path}: header declares {declared} episodes, found {len(episodes)} "
            f"(truncated file?)"
        )
    return Dataset(tuple(episodes), goals, config)


def replay_episode(episode: Episode, config: TaskConfig) -> list[EnvState]:
    """Re-execute the action list from states[0] with the same file-precision
    rounding; matches the stored states bit-exactly."""
    state = episode.states[0]
    out = [state]
    for action in episode.actions:
        state = execute(state, action, config).quantized()
        out.append(state)
    return out
