"""Closed-loop policy: observe, plan a subgoal, act, execute, replan every
step until the goal predicate fires or the horizon runs out."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .config import TaskConfig
from .controller import random_single_arm
from .seeding import make_rng
from .simulator import ActionPair, EnvState, PickPlace, execute, goal_reached


class Planner(Protocol):
    name: str

    def reset(self, episode_seed: int) -> None: ...

    def plan(self, state: EnvState) -> tuple[EnvState, tuple | None]: ...


class Controller(Protocol):
    name: str

    def select(
        self, state: EnvState, subgoal: EnvState, rng: np.random.Generator
    ) -> PickPlace | None: ...

    def follow(
        self, state: EnvState, subgoal: EnvState, leader: PickPlace,
        rng: np.random.Generator,
    ) -> PickPlace | None: ...


@dataclass
class EpisodeResult:
    success: bool
    steps: int
    states: list[EnvState]
    actions: list[ActionPair]
    subgoals: list[EnvState]
    subgoal_ids: list[tuple | None]
    roles: list[dict]
    seed: int
    failure: str | None = None  # None | "horizon" | "no-action"

    def to_obj(self) -> dict:
        return {
            "success": self.success,
            "steps": self.steps,
            "seed": self.seed,
            "failure": self.failure,
            "states": [s.to_obj() for s in self.states],
            "actions": [a.to_obj() for a in self.actions],
            "subgoals": [s.to_obj() for s in self.subgoals],
            "subgoal_ids": [list(i) if i is not None else None
                            for i in self.subgoal_ids],
            "roles": self.roles,
        }

    @staticmethod
    def from_obj(obj: dict) -> "EpisodeResult":
        return EpisodeResult(
            bool(obj["success"]),
            int(obj["steps"]),
            [EnvState.from_obj(s) for s in obj["states"]],
            [ActionPair.from_obj(a) for a in obj["actions"]],
            [EnvState.from_obj(s) for s in obj["subgoals"]],
            [tuple(i) if i is not None else None for i in obj["subgoal_ids"]],
            list(obj["roles"]),
            int(obj["seed"]),
            obj.get("failure"),
        )


def run_episode(
    env: EnvState,
    planner: Planner,
    controller: Controller,
    config: TaskConfig,
    seed: int,
    transitions: dict | None = None,
) -> EpisodeResult:
    """One closed-loop episode from `env`, replanning the subgoal each step.

    Each step executes the controller's leader drag, then asks the controller
    for a follower drag on the state the leader left and executes that. A
    controller returning no leader falls back to one uniform random feasible
    single-arm correspondence drag, with no follower; if that also fails the
    episode ends as a failure. States are recorded at file precision so
    results replay bit-exactly from disk.

    `transitions` is a table from the bytes of an input state's `q` and `o`
    and of a drag to the quantized state that drag leaves. A drag found
    there is not executed again: `execute` is pure in (state, action,
    config), so one table may serve the episodes of one config, as
    `harness._episode_task` shares one between the cells of an environment.
    Without one, the episode keeps its own.
    """
    transitions = {} if transitions is None else transitions

    def step(state: EnvState, drag: PickPlace) -> EnvState:
        key = (state.q.tobytes(), state.o.tobytes(),
               struct.pack("<2q4d", drag.arm_id, drag.pick_index, *drag.pick,
                           *drag.place))
        after = transitions.get(key)
        if after is None:
            after = transitions[key] = execute(state, ActionPair(drag),
                                               config).quantized()
        return after

    rng = make_rng(seed, "episode-rng")
    planner.reset(seed)
    state = env.quantized()
    states = [state]
    actions: list[ActionPair] = []
    subgoals: list[EnvState] = []
    subgoal_ids: list[tuple | None] = []
    roles: list[dict] = []
    success = False
    failure: str | None = None

    for _ in range(config.horizon_max):
        subgoal, ident = planner.plan(state)
        leader = controller.select(state, subgoal, rng)
        fallback = leader is None
        if fallback:
            leader = random_single_arm(state, subgoal, config, rng)
        if leader is None:
            failure = "no-action"
            break
        state = step(state, leader)
        follower = None if fallback else controller.follow(state, subgoal, leader, rng)
        if follower is not None:
            state = step(state, follower)
        states.append(state)
        actions.append(ActionPair(leader, follower))
        subgoals.append(subgoal)
        subgoal_ids.append(ident)
        roles.append(
            {
                "leader_arm": leader.arm_id,
                "follower": follower is not None,
                "fallback": fallback,
            }
        )
        if goal_reached(state, config):
            success = True
            break
    if not success and failure is None:
        failure = "horizon"
    return EpisodeResult(
        success,
        len(actions),
        states,
        actions,
        subgoals,
        subgoal_ids,
        roles,
        seed,
        failure,
    )
