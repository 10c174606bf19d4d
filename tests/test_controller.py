import math

import numpy as np
import pytest

from slackline.config import TaskConfig
from slackline.controller import (
    LeaderFollower,
    OnlyLeader,
    RandomControl,
    feasible_correspondence_actions,
    follower_select,
    leader_select,
    random_single_arm,
)
from slackline.geometry import Point, Segment, sequence_feasible
from slackline.seeding import make_rng
from slackline.simulator import ActionPair, EnvState, PickPlace, execute, generate_env


def state_of(points, obstacles=()):
    o = np.asarray(obstacles, dtype=float).reshape(-1, 2)
    return EnvState(np.asarray(points, dtype=float), o)


BASES = ((0.2, 0.3), (0.8, 0.3))


def tiny_config(**kw):
    defaults = dict(
        keypoint_count=3,
        dlo_length_range=(0.2, 0.2),
        arm_bases=BASES,
        obstacle_count=0,
    )
    defaults.update(kw)
    return TaskConfig(**defaults)


def pinned_config(**kw):
    defaults = dict(arm_bases=BASES, obstacle_count=0)
    defaults.update(kw)
    return TaskConfig(**defaults)


def step(controller, state, subgoal, config, rng=None):
    """One controller step as the policy runs it: the leader on `state`, the
    follower on the state the leader's drag left. None when no leader."""
    rng = make_rng(0) if rng is None else rng
    leader = controller.select(state, subgoal, rng)
    if leader is None:
        return None
    after = execute(state, ActionPair(leader), config).quantized()
    return ActionPair(leader, controller.follow(after, subgoal, leader, rng))


class TestLeaderSelect:
    def test_spec_instance_picks_nearer_arm(self):
        cfg = tiny_config()
        state = state_of([(0.4, 0.3), (0.5, 0.3), (0.6, 0.3)])
        subgoal = state_of([(0.4, 0.3), (0.5, 0.3), (0.6, 0.45)])
        pp = leader_select(state, subgoal, cfg)
        assert pp is not None
        assert (pp.arm_id, pp.pick_index) == (2, 2)
        assert pp.pick == (0.6, 0.3)
        assert pp.place == pytest.approx((0.6, 0.4), abs=1e-12)
        # hand check with the feasibility oracle
        assert sequence_feasible(
            Segment(Point(*pp.pick), Point(*pp.place)), cfg.arm(2), []
        )

    def test_converged_subgoal_returns_none(self):
        cfg = tiny_config()
        state = state_of([(0.4, 0.3), (0.5, 0.3), (0.6, 0.3)])
        assert leader_select(state, state, cfg) is None

    def test_displacement_clipped_to_max_step(self):
        cfg = tiny_config()
        state = state_of([(0.4, 0.3), (0.5, 0.3), (0.6, 0.3)])
        subgoal = state_of([(0.4, 0.3), (0.5, 0.3), (0.6, 0.8)])  # |V| = 0.5
        pp = leader_select(state, subgoal, cfg)
        assert pp.displacement() == pytest.approx(cfg.max_step, abs=1e-9)

    def test_falls_back_to_nearest_feasible_keypoint(self):
        cfg = tiny_config()
        # max-discrepancy keypoint sits in arm 1's inner dead disk where no
        # arm can reach, so the leader walks outward to the nearest feasible
        # candidate; the next-nearest keypoint is converged and skipped
        state = state_of([(0.2, 0.32), (0.6, 0.3), (0.5, 0.3)])
        subgoal = state_of([(0.3, 0.5), (0.62, 0.3), (0.5, 0.3)])
        got = leader_select(state, subgoal, cfg)
        assert got is not None
        assert got.pick_index == 1

    def test_no_feasible_drag_returns_none(self):
        cfg = tiny_config()
        # every keypoint inside one of the inner dead disks around the bases
        state = state_of([(0.18, 0.3), (0.22, 0.28), (0.8, 0.32)])
        subgoal = state_of([(0.23, 0.35), (0.27, 0.33), (0.85, 0.37)])
        # verify construction: no feasible correspondence action at all
        assert feasible_correspondence_actions(state, subgoal, cfg) == []
        assert leader_select(state, subgoal, cfg) is None


class TestFollowerSelect:
    def test_picks_farthest_feasible_keypoint_toward_endpoint_goal(self):
        cfg = pinned_config()
        m = cfg.keypoint_count
        xs = np.linspace(0.36, 0.64, m)  # both endpoints inside both annuli
        state = state_of(np.column_stack([xs, np.full(m, 0.3)]))
        goal_q = state.q.copy()
        goal_q[0] += [0.0, 0.1]
        goal_q[-1] += [0.0, 0.1]
        subgoal = state_of(goal_q)
        leader = leader_select(state, subgoal, cfg)
        assert leader is not None
        after = execute(state, ActionPair(leader), cfg).quantized()
        follower = follower_select(after, subgoal, leader, cfg)
        assert follower is not None
        assert follower.arm_id == 3 - leader.arm_id
        sep = math.hypot(
            follower.pick[0] - leader.pick[0],
            follower.pick[1] - leader.pick[1],
        )
        assert sep > cfg.min_pick_separation
        # direction follows the nearest endpoint's displacement (+y here)
        assert follower.place[1] > follower.pick[1]

    def test_all_candidates_within_separation_gives_none(self):
        cfg = tiny_config()  # chain length 0.2 < min_pick_separation holds pairwise?
        state = state_of([(0.45, 0.3), (0.5, 0.3), (0.55, 0.3)])
        subgoal = state_of([(0.45, 0.42), (0.5, 0.42), (0.55, 0.42)])
        leader = leader_select(state, subgoal, cfg)
        assert leader is not None
        # max pairwise distance 0.1 < 0.15 separation threshold
        after = execute(state, ActionPair(leader), cfg).quantized()
        assert follower_select(after, subgoal, leader, cfg) is None


class TestAct:
    def test_composes_leader_and_follower(self):
        cfg = pinned_config()
        m = cfg.keypoint_count
        xs = np.linspace(0.36, 0.64, m)
        state = state_of(np.column_stack([xs, np.full(m, 0.3)]))
        goal_q = state.q + [0.0, 0.12]
        subgoal = state_of(goal_q)
        pair = step(LeaderFollower(cfg), state, subgoal, cfg)
        assert pair is not None
        assert pair.follower is not None
        assert pair.leader.arm_id != pair.follower.arm_id

    def test_single_arm_mode_when_one_side_unreachable(self):
        cfg = pinned_config()
        m = cfg.keypoint_count
        # cluster the whole chain where only arm 1 can reach
        xs = np.linspace(0.26, 0.37, m)
        state = state_of(np.column_stack([xs, np.full(m, 0.44)]))
        for x, y in state.q:
            assert math.hypot(x - 0.8, y - 0.3) > cfg.reach_max
            assert cfg.reach_min < math.hypot(x - 0.2, y - 0.3) < cfg.reach_max
        subgoal = state_of(state.q + [0.0, 0.05])
        pair = step(LeaderFollower(cfg), state, subgoal, cfg)
        assert pair is not None
        assert pair.leader.arm_id == 1
        assert pair.follower is None

    def test_deterministic(self):
        cfg = pinned_config()
        m = cfg.keypoint_count
        xs = np.linspace(0.35, 0.35 + 0.03 * (m - 1), m)
        state = state_of(np.column_stack([xs, np.full(m, 0.25)]))
        subgoal = state_of(state.q + [0.01, 0.08])
        ctl = LeaderFollower(cfg)
        assert step(ctl, state, subgoal, cfg) == step(ctl, state, subgoal, cfg)


class TestAblationControllers:
    def setup_method(self):
        self.cfg = TaskConfig()
        m = self.cfg.keypoint_count
        xs = np.linspace(0.35, 0.35 + 0.033 * (m - 1), m)
        self.state = state_of(np.column_stack([xs, np.full(m, 0.3)]))
        self.subgoal = state_of(self.state.q + [0.0, 0.1])

    def test_only_leader_has_no_follower(self):
        pair = step(OnlyLeader(self.cfg), self.state, self.subgoal, self.cfg)
        assert pair is not None
        assert pair.follower is None

    def test_random_control_reproducible(self):
        ctl = RandomControl(self.cfg)
        a = step(ctl, self.state, self.subgoal, self.cfg, make_rng(3))
        b = step(ctl, self.state, self.subgoal, self.cfg, make_rng(3))
        assert a == b

    def test_random_control_respects_constraints(self):
        ctl = RandomControl(self.cfg)
        for seed in range(25):
            pair = step(ctl, self.state, self.subgoal, self.cfg, make_rng(seed))
            assert pair is not None
            for pp in pair.sequences():
                assert pp.displacement() <= self.cfg.max_step + 1e-9
            if pair.follower is not None:
                sep = math.hypot(
                    pair.leader.pick[0] - pair.follower.pick[0],
                    pair.leader.pick[1] - pair.follower.pick[1],
                )
                assert sep > self.cfg.min_pick_separation
                assert pair.leader.arm_id != pair.follower.arm_id

    def test_random_single_arm_fallback(self):
        pp = random_single_arm(self.state, self.subgoal, self.cfg, make_rng(1))
        assert isinstance(pp, PickPlace)


class TestSelectNoneIffNoFeasibleDrag:
    """Every shipped controller returns no leader exactly when no feasible
    correspondence drag exists, so no other correspondence drag could act
    where the closed loop ends an episode as no-action."""

    def test_on_random_pairs(self, task_config):
        rng = make_rng(5)
        controllers = [LeaderFollower(task_config), OnlyLeader(task_config),
                       RandomControl(task_config)]
        seen = {True: 0, False: 0}
        for i in range(60):
            state = generate_env(task_config, 3000 + i)
            q = state.q.copy()
            k = int(rng.integers(len(q)))
            q[k] = rng.uniform((0.0, 0.0), (task_config.workspace_width,
                                            task_config.workspace_height))
            # another environment's chain, one keypoint moved, and the state
            # itself (every keypoint converged)
            for subgoal in (generate_env(task_config, 4000 + i),
                            EnvState(q, state.o), state):
                empty = not feasible_correspondence_actions(state, subgoal,
                                                            task_config)
                seen[empty] += 1
                for ctl in controllers:
                    assert (ctl.select(state, subgoal, rng) is None) == empty
        assert seen[True] > 60 and seen[False] > 60


class TestEmittedActionsFeasible:
    def test_all_emitted_actions_pass_feasibility(self, task_config, small_dataset):
        # controller outputs on real states always pass the swept check
        ctl = LeaderFollower(task_config)
        rng = make_rng(5)
        checked = 0
        for ep in small_dataset.episodes[:6]:
            goal = ep.achieved_goal
            for state in ep.states[:-1]:
                pair = step(ctl, state, goal, task_config, rng)
                if pair is None:
                    continue
                obstacles = state.obstacles(task_config)
                for pp in pair.sequences():
                    assert sequence_feasible(
                        pp.segment(), task_config.arm(pp.arm_id), obstacles
                    )
                    checked += 1
        assert checked > 10


class TestScanOptimality:
    def test_leader_picks_nearest_feasible_to_max_discrepancy(
        self, task_config, small_dataset
    ):
        # exhaustive re-scan of logged decisions: no keypoint strictly closer
        # to the max-discrepancy keypoint than the chosen one admits a
        # feasible drag
        checked = 0
        for ep in small_dataset.episodes[:8]:
            goal = ep.achieved_goal
            for state in ep.states[:-1]:
                got = leader_select(state, goal, task_config)
                if got is None:
                    continue
                k_star = got.pick_index
                q = state.q
                g = goal.q
                disc = np.hypot(g[:, 0] - q[:, 0], g[:, 1] - q[:, 1])
                top = int(np.argmax(disc))
                d_star = math.hypot(q[k_star, 0] - q[top, 0], q[k_star, 1] - q[top, 1])
                obstacles = [tuple(c) for c in state.o.tolist()]
                from slackline.controller import _arm_feasible, clipped_place

                for k in range(q.shape[0]):
                    dk = math.hypot(q[k, 0] - q[top, 0], q[k, 1] - q[top, 1])
                    if dk >= d_star:
                        continue
                    place = clipped_place(
                        state, k, float(g[k, 0] - q[k, 0]),
                        float(g[k, 1] - q[k, 1]), task_config.max_step,
                    )
                    if place is None:
                        continue
                    for arm_id in (1, 2):
                        assert not _arm_feasible(
                            state, task_config, obstacles, arm_id, k, place
                        )
                checked += 1
        assert checked > 10

    def test_follower_picks_farthest_feasible(self, task_config, small_dataset):
        # on the state the leader's drag left, no keypoint farther from the
        # leader's pick than the chosen one (and beyond the separation
        # threshold) admits a feasible drag for the other arm
        checked = 0
        for ep in small_dataset.episodes[:8]:
            goal = ep.achieved_goal
            for state in ep.states[:-1]:
                leader = leader_select(state, goal, task_config)
                if leader is None:
                    continue
                after = execute(state, ActionPair(leader), task_config).quantized()
                follower = follower_select(after, goal, leader, task_config)
                if follower is None:
                    continue
                q = after.q
                g = goal.q
                m = q.shape[0]
                lx, ly = leader.pick
                d_f = math.hypot(
                    q[follower.pick_index, 0] - lx, q[follower.pick_index, 1] - ly
                )
                obstacles = [tuple(c) for c in after.o.tolist()]
                from slackline.controller import _arm_feasible, clipped_place

                for k in range(m):
                    dk = math.hypot(q[k, 0] - lx, q[k, 1] - ly)
                    if dk <= d_f or dk <= task_config.min_pick_separation:
                        continue
                    d_first = math.hypot(q[k, 0] - q[0, 0], q[k, 1] - q[0, 1])
                    d_last = math.hypot(q[k, 0] - q[m - 1, 0], q[k, 1] - q[m - 1, 1])
                    end = 0 if d_first <= d_last else m - 1
                    place = clipped_place(
                        after, k, float(g[end, 0] - q[end, 0]),
                        float(g[end, 1] - q[end, 1]), task_config.max_step,
                    )
                    if place is None:
                        continue
                    assert not _arm_feasible(
                        after, task_config, obstacles, 3 - leader.arm_id, k, place
                    )
                checked += 1
        assert checked > 5
