"""Goal-conditioned controllers.

Actions are correspondence-based: a drag picks a keypoint of the current
state and moves it toward the matching keypoint of the subgoal (for the
leader) or along the displacement its nearest chain endpoint needs (for the
follower), with the displacement magnitude capped at the per-step limit.

A controller makes one step in two calls. `select` chooses the leader's drag
on the state the step starts from. `follow` chooses the other arm's drag on
the state the leader's drag left (at file precision), so the follower picks
a keypoint where it really is; its pick must lie beyond the pick separation
threshold from the leader's pick. The leader corrects the largest keypoint
discrepancy it can feasibly reach; the follower cooperates at the farthest
feasible keypoint, so the chain deforms globally and the arms stay apart.
"""

from __future__ import annotations

import math

import numpy as np

from .config import TaskConfig
from .geometry import sequence_feasible_xy
from .simulator import EnvState, PickPlace, quantize

# displacements below this are treated as converged and produce no action
CONVERGED = 1e-6


def make_pickplace(
    arm_id: int, k: int, state: EnvState, place: tuple[float, float]
) -> PickPlace:
    """PickPlace whose place point is rounded to the file precision, so the
    executed action and its serialized form are identical."""
    return PickPlace(
        arm_id,
        k,
        (float(state.q[k, 0]), float(state.q[k, 1])),
        (quantize(place[0]), quantize(place[1])),
    )


def clipped_place(
    state: EnvState, k: int, vx: float, vy: float, max_step: float
) -> tuple[float, float] | None:
    """Place point for dragging keypoint k along (vx, vy), capped at
    max_step; None when the direction is effectively zero."""
    norm = math.hypot(vx, vy)
    if norm < CONVERGED:
        return None
    scale = min(max_step, norm) / norm
    return (
        quantize(float(state.q[k, 0]) + vx * scale),
        quantize(float(state.q[k, 1]) + vy * scale),
    )


def _arm_feasible(
    state: EnvState,
    config: TaskConfig,
    obstacles: list[list[float]],
    arm_id: int,
    k: int,
    place: tuple[float, float],
) -> bool:
    bx, by = config.arm_bases[arm_id - 1]
    return sequence_feasible_xy(
        float(state.q[k, 0]),
        float(state.q[k, 1]),
        place[0],
        place[1],
        bx,
        by,
        config.reach_min,
        config.reach_max,
        obstacles,
        config.obstacle_clearance,
    )


def feasible_correspondence_actions(
    state: EnvState, subgoal: EnvState, config: TaskConfig
) -> list[tuple[int, int, tuple[float, float]]]:
    """All feasible (arm, keypoint, place) correspondence actions toward the
    subgoal, in (keypoint, arm) order."""
    out: list[tuple[int, int, tuple[float, float]]] = []
    obstacles = state.o.tolist()
    q = state.q
    g = subgoal.q
    for k in range(q.shape[0]):
        place = clipped_place(
            state, k, float(g[k, 0] - q[k, 0]), float(g[k, 1] - q[k, 1]),
            config.max_step,
        )
        if place is None:
            continue
        for arm_id in (1, 2):
            if _arm_feasible(state, config, obstacles, arm_id, k, place):
                out.append((arm_id, k, place))
    return out


def leader_select(
    state: EnvState, subgoal: EnvState, config: TaskConfig
) -> PickPlace | None:
    """Pick the feasible keypoint nearest (in the current state) to the
    keypoint of largest discrepancy, dragged toward its subgoal match.

    Candidates are scanned in increasing distance from the max-discrepancy
    keypoint; converged keypoints are skipped. When both arms can execute the
    drag, the arm whose base is nearer the pick wins, ties to arm 1.
    """
    q = state.q
    g = subgoal.q
    disc = np.hypot(g[:, 0] - q[:, 0], g[:, 1] - q[:, 1])
    top = int(np.argmax(disc))
    order = np.argsort(
        np.hypot(q[:, 0] - q[top, 0], q[:, 1] - q[top, 1]), kind="stable"
    )
    obstacles = state.o.tolist()
    for k in map(int, order):
        place = clipped_place(
            state, k, float(g[k, 0] - q[k, 0]), float(g[k, 1] - q[k, 1]),
            config.max_step,
        )
        if place is None:
            continue
        feasible = [
            arm_id
            for arm_id in (1, 2)
            if _arm_feasible(state, config, obstacles, arm_id, k, place)
        ]
        if not feasible:
            continue
        if len(feasible) == 2:
            d1 = math.hypot(q[k, 0] - config.arm_bases[0][0],
                            q[k, 1] - config.arm_bases[0][1])
            d2 = math.hypot(q[k, 0] - config.arm_bases[1][0],
                            q[k, 1] - config.arm_bases[1][1])
            arm_id = 1 if d1 <= d2 else 2
        else:
            arm_id = feasible[0]
        return make_pickplace(arm_id, k, state, place)
    return None


def follower_select(
    state: EnvState, subgoal: EnvState, leader: PickPlace, config: TaskConfig
) -> PickPlace | None:
    """Farthest feasible keypoint of the state the leader's drag left,
    measured from the leader's pick and beyond the pick-separation
    threshold, dragged along the displacement of its nearest chain endpoint;
    the non-leader arm executes it. None switches to single-arm mode."""
    q = state.q
    g = subgoal.q
    m = q.shape[0]
    dists = np.hypot(q[:, 0] - leader.pick[0], q[:, 1] - leader.pick[1])
    order = np.argsort(-dists, kind="stable")
    obstacles = state.o.tolist()
    follower_arm = 3 - leader.arm_id
    for k in map(int, order):
        if dists[k] <= config.min_pick_separation:
            break  # sorted descending: no farther candidate remains
        d_first = math.hypot(q[k, 0] - q[0, 0], q[k, 1] - q[0, 1])
        d_last = math.hypot(q[k, 0] - q[m - 1, 0], q[k, 1] - q[m - 1, 1])
        end = 0 if d_first <= d_last else m - 1
        place = clipped_place(
            state, k, float(g[end, 0] - q[end, 0]), float(g[end, 1] - q[end, 1]),
            config.max_step,
        )
        if place is None:
            continue
        if _arm_feasible(state, config, obstacles, follower_arm, k, place):
            return make_pickplace(follower_arm, k, state, place)
    return None


def random_single_arm(
    state: EnvState,
    subgoal: EnvState,
    config: TaskConfig,
    rng: np.random.Generator,
) -> PickPlace | None:
    """One uniform feasible correspondence drag, for either arm."""
    candidates = feasible_correspondence_actions(state, subgoal, config)
    if not candidates:
        return None
    arm_id, k, place = candidates[int(rng.integers(len(candidates)))]
    return make_pickplace(arm_id, k, state, place)


class LeaderFollower:
    """Default controller."""

    name = "leader-follower"

    def __init__(self, config: TaskConfig) -> None:
        self.config = config

    def select(
        self, state: EnvState, subgoal: EnvState, rng: np.random.Generator
    ) -> PickPlace | None:
        return leader_select(state, subgoal, self.config)

    def follow(
        self, state: EnvState, subgoal: EnvState, leader: PickPlace,
        rng: np.random.Generator,
    ) -> PickPlace | None:
        return follower_select(state, subgoal, leader, self.config)


class OnlyLeader:
    """Single-arm ablation: the leader acts alone."""

    name = "only-leader"

    def __init__(self, config: TaskConfig) -> None:
        self.config = config

    def select(
        self, state: EnvState, subgoal: EnvState, rng: np.random.Generator
    ) -> PickPlace | None:
        return leader_select(state, subgoal, self.config)

    def follow(
        self, state: EnvState, subgoal: EnvState, leader: PickPlace,
        rng: np.random.Generator,
    ) -> PickPlace | None:
        return None


class RandomControl:
    """Random-control ablation: a uniform feasible correspondence drag per
    arm, the second arm only when a pick beyond the separation threshold
    exists."""

    name = "random-control"

    def __init__(self, config: TaskConfig) -> None:
        self.config = config

    def select(
        self, state: EnvState, subgoal: EnvState, rng: np.random.Generator
    ) -> PickPlace | None:
        return random_single_arm(state, subgoal, self.config, rng)

    def follow(
        self, state: EnvState, subgoal: EnvState, leader: PickPlace,
        rng: np.random.Generator,
    ) -> PickPlace | None:
        q = state.q
        partners = [
            c
            for c in feasible_correspondence_actions(state, subgoal, self.config)
            if c[0] != leader.arm_id
            and math.hypot(q[c[1], 0] - leader.pick[0], q[c[1], 1] - leader.pick[1])
            > self.config.min_pick_separation
        ]
        if not partners:
            return None
        arm_id, k, place = partners[int(rng.integers(len(partners)))]
        return make_pickplace(arm_id, k, state, place)
