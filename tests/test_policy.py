import math

import numpy as np
import pytest

from slackline.controller import (
    LeaderFollower,
    feasible_correspondence_actions,
    make_pickplace,
)
from slackline.harness import EvalArtifacts, make_controller, make_planner
from slackline.policy import EpisodeResult, run_episode
from slackline.simulator import (
    ActionPair,
    InfeasibleActionError,
    execute,
    generate_env,
    goal_reached,
)


@pytest.fixture(scope="module")
def artifacts(small_dataset, small_encoder):
    return EvalArtifacts(small_dataset, small_encoder)


@pytest.fixture(scope="module")
def one_result(task_config, artifacts):
    planner = make_planner("contrastive", artifacts, seed=3)
    controller = make_controller("leader-follower", task_config)
    env = generate_env(task_config, 31)
    return run_episode(env, planner, controller, task_config, seed=99)


class TestRunEpisode:
    def test_horizon_bound(self, task_config, one_result):
        assert 1 <= one_result.steps <= task_config.horizon_max
        assert len(one_result.states) == one_result.steps + 1
        assert len(one_result.actions) == one_result.steps

    def test_success_iff_goal_reached(self, task_config, one_result):
        assert one_result.success == goal_reached(
            one_result.states[-1], task_config
        )

    def test_deterministic(self, task_config, artifacts, one_result):
        planner = make_planner("contrastive", artifacts, seed=3)
        controller = make_controller("leader-follower", task_config)
        env = generate_env(task_config, 31)
        again = run_episode(env, planner, controller, task_config, seed=99)
        assert again.success == one_result.success
        assert again.steps == one_result.steps
        assert all(a == b for a, b in zip(again.states, one_result.states))
        assert all(a == b for a, b in zip(again.actions, one_result.actions))

    def test_replay_fidelity(self, task_config, one_result):
        state = one_result.states[0]
        for action, want in zip(one_result.actions, one_result.states[1:]):
            state = execute(state, action, task_config).quantized()
            assert state == want

    def test_subgoal_trace_recorded(self, task_config, one_result):
        assert len(one_result.subgoals) == one_result.steps
        assert len(one_result.subgoal_ids) == one_result.steps
        assert len(one_result.roles) == one_result.steps
        for ident in one_result.subgoal_ids:
            assert ident is not None  # contrastive always reports (j, t)
        for subgoal in one_result.subgoals:
            assert goal_reached(subgoal, task_config)

    def test_roles_match_actions(self, one_result):
        for action, role in zip(one_result.actions, one_result.roles):
            assert role["leader_arm"] == action.leader.arm_id
            assert role["follower"] == (action.follower is not None)

    def test_batch_over_seeds(self, task_config, artifacts):
        # sanity across several environments: horizon bound and record shapes
        planner = make_planner("contrastive", artifacts, seed=3)
        controller = LeaderFollower(task_config)
        for seed in range(8):
            env = generate_env(task_config, 400 + seed)
            result = run_episode(env, planner, controller, task_config, seed)
            assert result.steps <= task_config.horizon_max
            assert result.success == goal_reached(result.states[-1], task_config)
            if not result.success:
                assert result.failure in ("horizon", "no-action")


class TestFollowerFromLeaderResult:
    @pytest.mark.parametrize("name", ["leader-follower", "random-control"])
    def test_follower_picks_where_the_leader_left_the_chain(
        self, task_config, artifacts, name
    ):
        """Every logged follower picks its keypoint where the leader's drag
        left it (at file precision), beyond the separation threshold from the
        leader's pick, and the logged pair replays to the next state."""
        planner = make_planner("random", artifacts, seed=3)
        controller = make_controller(name, task_config)
        followers = 0
        for seed in range(6):
            env = generate_env(task_config, 500 + seed)
            result = run_episode(env, planner, controller, task_config, seed)
            for t, action in enumerate(result.actions):
                state = result.states[t]
                if action.follower is not None:
                    followers += 1
                    after = execute(
                        state, ActionPair(action.leader), task_config
                    ).quantized()
                    follower = action.follower
                    assert follower.pick == tuple(after.q[follower.pick_index])
                    assert math.hypot(
                        follower.pick[0] - action.leader.pick[0],
                        follower.pick[1] - action.leader.pick[1],
                    ) > task_config.min_pick_separation
                replayed = execute(state, action, task_config).quantized()
                assert replayed == result.states[t + 1]
        assert followers > 5


class RogueFollower(LeaderFollower):
    """Leads as LeaderFollower does, then follows with a drag that passes
    every check of a drag on its own but breaks one rule of a pair: the
    same arm as the leader, or a pick within the separation threshold."""

    def __init__(self, config, rule):
        super().__init__(config)
        self.rule = rule
        self.broken = 0

    def follow(self, state, subgoal, leader, rng):
        for arm_id, k, place in feasible_correspondence_actions(
            state, subgoal, self.config
        ):
            same_arm = arm_id == leader.arm_id
            close = math.hypot(state.q[k, 0] - leader.pick[0],
                               state.q[k, 1] - leader.pick[1])
            breaks = {
                "arm": same_arm,
                "separation": not same_arm
                and close <= self.config.min_pick_separation,
            }
            if breaks[self.rule]:
                self.broken += 1
                return make_pickplace(arm_id, k, state, place)
        return None


class TestPairRules:
    @pytest.mark.parametrize("rule, message", [
        ("arm", "different arms"), ("separation", "pick separation"),
    ])
    def test_a_follower_breaking_a_pair_rule_is_refused(
        self, task_config, artifacts, rule, message
    ):
        """run_episode executes the leader and the follower one at a time,
        and holds them to execute's pair rules before the follower runs."""
        planner = make_planner("random", artifacts, seed=3)
        controller = RogueFollower(task_config, rule)
        with pytest.raises(InfeasibleActionError, match=message):
            for seed in range(6):
                env = generate_env(task_config, 500 + seed)
                run_episode(env, planner, controller, task_config, seed)
        assert controller.broken == 1


class TestResultSerialization:
    def test_roundtrip(self, one_result):
        again = EpisodeResult.from_obj(one_result.to_obj())
        assert again.success == one_result.success
        assert again.steps == one_result.steps
        assert all(a == b for a, b in zip(again.states, one_result.states))
        assert all(a == b for a, b in zip(again.actions, one_result.actions))
        assert again.subgoal_ids == one_result.subgoal_ids
        assert again.roles == one_result.roles

    def test_json_stable(self, one_result):
        import json

        payload = json.dumps(one_result.to_obj())
        again = EpisodeResult.from_obj(json.loads(payload))
        assert json.dumps(again.to_obj()) == payload
