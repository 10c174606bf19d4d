import hashlib
import json
import math
import pickle

import numpy as np
import pytest

from slackline import simulator
from slackline.config import TaskConfig
from slackline.controller import make_pickplace
from slackline.explore import _arbitrary_action
from slackline.geometry import Point, waypoint_valid
from slackline.harness import sweep_config
from slackline.policy import EpisodeResult
from slackline.seeding import make_rng
from slackline.simulator import (
    ActionPair,
    EnvState,
    GenerationError,
    InfeasibleActionError,
    PickPlace,
    execute,
    execute_with_stats,
    generate_env,
    goal_reached,
    quantize,
    quantize_all,
    reward,
)


def straight_chain(m=16, link=0.035, x0=0.42, y0=0.3):
    q = np.column_stack([x0 + np.arange(m) * link, np.full(m, y0)])
    return EnvState(q, np.zeros((0, 2)))


def link_lengths(state):
    d = np.diff(state.q, axis=0)
    return np.hypot(d[:, 0], d[:, 1])


def bend_angles(state):
    q = state.q
    out = []
    for j in range(1, q.shape[0] - 1):
        a = q[j] - q[j - 1]
        b = q[j + 1] - q[j]
        out.append(abs(math.atan2(a[0] * b[1] - a[1] * b[0], float(a @ b))))
    return np.array(out)


def obstacle_penetration(state, mu):
    worst = 0.0
    pts = np.vstack([state.q, 0.5 * (state.q[:-1] + state.q[1:])])
    for ox, oy in state.o:
        worst = max(worst, mu - np.hypot(pts[:, 0] - ox, pts[:, 1] - oy).min())
    return worst


class TestGenerateEnv:
    def test_deterministic(self, task_config):
        a = generate_env(task_config, 42)
        b = generate_env(task_config, 42)
        assert a == b

    def test_different_seeds_differ(self, task_config):
        assert generate_env(task_config, 1) != generate_env(task_config, 2)

    def test_never_starts_in_goal(self, task_config):
        for seed in range(30):
            state = generate_env(task_config, seed)
            assert not goal_reached(state, task_config)

    def test_link_lengths_uniform(self, task_config):
        lo, hi = task_config.dlo_length_range
        m = task_config.keypoint_count
        for seed in range(100):
            state = generate_env(task_config, seed)
            ll = link_lengths(state)
            assert np.abs(ll - ll.mean()).max() < 1e-9
            assert lo / (m - 1) - 1e-9 <= ll.mean() <= hi / (m - 1) + 1e-9

    def test_chain_inside_workspace(self, task_config):
        for seed in range(30):
            q = generate_env(task_config, seed).q
            assert (q[:, 0] >= 0).all() and (q[:, 0] <= task_config.workspace_width).all()
            assert (q[:, 1] >= 0).all() and (q[:, 1] <= task_config.workspace_height).all()

    def test_initial_bends_within_limit(self, task_config):
        for seed in range(30):
            state = generate_env(task_config, seed)
            assert bend_angles(state).max() <= task_config.joint_limit + 1e-9

    def test_obstacles_separated(self, task_config):
        for seed in range(30):
            o = generate_env(task_config, seed).o
            for i in range(len(o)):
                for j in range(i + 1, len(o)):
                    assert np.hypot(*(o[i] - o[j])) >= 3 * task_config.obstacle_radius

    def test_impossible_config_raises(self):
        bad = TaskConfig(obstacle_count=120)  # cannot place with 3*mu spacing
        with pytest.raises(GenerationError):
            generate_env(bad, 0)


PINNED = TaskConfig(arm_bases=((0.2, 0.3), (0.8, 0.3)))


class TestExecute:
    @pytest.fixture()
    def task_config(self):
        return PINNED

    def test_identity_action_is_exact_noop(self, task_config):
        state = straight_chain()
        pp = PickPlace(1, 0, (0.42, 0.3), (0.42, 0.3))
        out = execute(state, ActionPair(pp), task_config)
        assert np.array_equal(out.q, state.q)

    def test_axial_drag_keeps_chain_straight(self, task_config):
        state = straight_chain()
        pp = PickPlace(1, 0, (0.42, 0.3), (0.37, 0.3))
        out = execute(state, ActionPair(pp), task_config)
        assert abs(out.q[0, 0] - 0.37) < 1e-6
        assert abs(out.q[0, 1] - 0.3) < 1e-12
        assert np.abs(out.q[:, 1] - 0.3).max() < 1e-9
        assert np.abs(link_lengths(out) - 0.035).max() < 1e-9

    def test_input_state_never_mutated(self, task_config):
        state = straight_chain()
        before = state.q.copy()
        pp = PickPlace(1, 0, (0.42, 0.3), (0.37, 0.3))
        execute(state, ActionPair(pp), task_config)
        assert np.array_equal(before, state.q)

    def test_deterministic(self, task_config):
        state = generate_env(task_config, 7)
        action = _arbitrary_action(state, task_config, make_rng(1))
        assert execute(state, action, task_config) == execute(state, action, task_config)

    def test_infeasible_action_rejected(self, task_config):
        state = straight_chain()
        # pick inside arm 1's inner ring
        bad = PickPlace(1, 0, (0.42, 0.3), (0.3, 0.3))
        with pytest.raises(InfeasibleActionError):
            execute(state, ActionPair(bad), task_config)

    def test_pick_must_match_keypoint(self, task_config):
        state = straight_chain()
        bad = PickPlace(1, 0, (0.43, 0.3), (0.4, 0.3))
        with pytest.raises(InfeasibleActionError):
            execute(state, ActionPair(bad), task_config)

    def test_displacement_cap_enforced(self, task_config):
        state = straight_chain()
        bad = PickPlace(1, 0, (0.42, 0.3), (0.42, 0.45))
        with pytest.raises(InfeasibleActionError):
            execute(state, ActionPair(bad), task_config)

    def test_dual_arm_needs_distinct_arms(self, task_config):
        state = straight_chain()
        a = PickPlace(1, 0, (0.42, 0.3), (0.40, 0.3))
        b = PickPlace(1, 15, tuple(state.q[15]), tuple(state.q[15]))
        with pytest.raises(InfeasibleActionError):
            execute(state, ActionPair(a, b), task_config)

    def test_pick_separation_enforced(self, task_config):
        state = straight_chain()
        a = PickPlace(1, 6, tuple(state.q[6]), tuple(state.q[6]))
        b = PickPlace(2, 7, tuple(state.q[7]), tuple(state.q[7]))
        with pytest.raises(InfeasibleActionError):
            execute(state, ActionPair(a, b), task_config)

    def test_perpendicular_drag_respects_joint_limit(self, task_config):
        state = straight_chain()
        pp = PickPlace(1, 0, (0.42, 0.3), (0.42, 0.4))
        out = execute(state, ActionPair(pp), task_config)
        assert np.abs(out.q[0] - [0.42, 0.4]).max() < 1e-6
        assert bend_angles(out).max() <= task_config.joint_limit + 1e-9
        assert np.abs(link_lengths(out) - 0.035).max() < 1e-9

    def test_random_action_invariants(self, task_config):
        mu = task_config.obstacle_radius
        checked = 0
        for seed in range(8):
            state = generate_env(task_config, seed)
            nominal = state.link_length()
            rng = make_rng(900, seed)
            for _ in range(25):
                action = _arbitrary_action(state, task_config, rng)
                if action is None:
                    break
                state = execute(state, action, task_config)
                checked += 1
                assert np.abs(link_lengths(state) - nominal).max() < 1e-9
                assert bend_angles(state).max() <= task_config.joint_limit + 1e-9
                assert obstacle_penetration(state, mu) <= 1e-3
        assert checked > 100

    def test_pin_fidelity_unobstructed(self, task_config):
        hits = 0
        for seed in range(25):
            state = generate_env(task_config, seed)
            rng = make_rng(901, seed)
            for _ in range(10):
                action = _arbitrary_action(state, task_config, rng)
                if action is None:
                    break
                new_state, stats = execute_with_stats(state, action, task_config)
                pp = action.leader
                far = all(
                    np.hypot(state.o[:, 0] - x, state.o[:, 1] - y).min()
                    > task_config.obstacle_radius + task_config.max_step
                    for x, y in (pp.pick, pp.place)
                ) if len(state.o) else True
                # the rule of acceptance criterion 2: cone clamps never move
                # the pin, so only a clamped target or a near obstacle excuse it
                if far and stats.workspace_clamps == 0:
                    err = np.hypot(
                        new_state.q[pp.pick_index, 0] - pp.place[0],
                        new_state.q[pp.pick_index, 1] - pp.place[1],
                    )
                    assert err <= 1e-6
                    hits += 1
                state = new_state
        assert hits >= 10

    # (obstacle radius, env seed offset, action index) of actions of the
    # acceptance corpus, at the default radius and at two radius sweep
    # points, that once ended with a link midpoint 1.1-5.7 mm inside a disc:
    # the cone near the pin had no room for a clean placement, and radial
    # pushes and the projection undid each other until the settle phase gave
    # up
    PENETRATING = [
        (0.04, 1, 14), (0.04, 28, 14), (0.04, 55, 35), (0.04, 80, 22),
        (0.05, 28, 5), (0.06, 101, 7),
    ]

    @pytest.mark.parametrize("radius, env, index", PENETRATING)
    def test_conflict_resolved_without_penetration(self, radius, env, index):
        config = sweep_config(TaskConfig(), "obstacle_radius", radius)
        state = generate_env(config, 600_000 + env)
        rng = make_rng(61, env)
        for _ in range(index):
            state = execute(state, _arbitrary_action(state, config, rng), config)
        action = _arbitrary_action(state, config, rng)
        out = execute(state, action, config)
        assert obstacle_penetration(out, config.obstacle_radius) <= 1e-3
        assert np.abs(link_lengths(out) - state.link_length()).max() < 1e-9
        assert bend_angles(out).max() <= config.joint_limit + 1e-9


# A leader-follower step of an evaluation episode (random planner, seed
# 12345, episode 1, step 9) as the controller once chose it: the follower's
# pick was taken from the state before the leader's drag, which moves
# keypoint 2. Executed from where the leader left it, that drag pushed the
# chain out of a disc 484 times.
PUSH_Q = [
    [0.644283726, 0.330335794], [0.614348862, 0.314433249],
    [0.584793455, 0.331030387], [0.58279061, 0.364867876],
    [0.610181734, 0.384835685], [0.643502814, 0.378615343],
    [0.666740508, 0.403293201], [0.658530186, 0.436180549],
    [0.626629225, 0.447639857], [0.593797298, 0.439210645],
    [0.568965195, 0.462283436], [0.574963437, 0.495645213],
    [0.594602786, 0.523272789], [0.582884153, 0.555079403],
    [0.549788206, 0.5624037], [0.525743206, 0.538511755],
]
PUSH_O = [
    [0.0476864317, 0.499438394], [0.698365995, 0.303032276],
    [0.819383943, 0.123136266], [0.15633993, 0.310755669],
]

# A single-arm drag of `explore.collect(TaskConfig(), episodes=200, seed=0)`
# that the projection leaves 0.078 mm inside the disc at (0.180, 0.559), where
# the cone wins: the deepest accepted contact of that collect.
COLLECT_PUSH_Q = [
    [0.365925673, 0.435571464], [0.327471589, 0.458876392],
    [0.287670973, 0.479798802], [0.28377221, 0.524594292],
    [0.24882363, 0.552886218], [0.226937048, 0.592164886],
    [0.182562534, 0.599427037], [0.138235456, 0.591880753],
    [0.120635412, 0.550503529], [0.0882889845, 0.519269815],
    [0.0459348298, 0.504171409], [0.0103459123, 0.531653498],
    [0.0142425187, 0.576449176], [0.0540053014, 0.597443398],
    [0.0931818744, 0.575374588], [0.112007965, 0.5345406],
]
COLLECT_PUSH_O = [
    [0.927575267, 0.498430681], [0.700384938, 0.465891302],
    [0.179759194, 0.559281937], [0.790591486, 0.309635598],
]


def golden_corpus():
    """(state, action, config) of every execute in the golden corpus: 300
    arbitrary drags at obstacle radius 0.04 and 0.06 and the PENETRATING
    actions."""
    for radius in (0.04, 0.06):
        config = sweep_config(TaskConfig(), "obstacle_radius", radius)
        for env in range(10):
            state = generate_env(config, 700_000 + env)
            rng = make_rng(62, env)
            for _ in range(15):
                action = _arbitrary_action(state, config, rng)
                if action is None:
                    break
                yield state, action, config
                state = execute(state, action, config)
    for radius, env, index in TestExecute.PENETRATING:
        config = sweep_config(TaskConfig(), "obstacle_radius", radius)
        state = generate_env(config, 600_000 + env)
        rng = make_rng(61, env)
        for _ in range(index):
            state = execute(state, _arbitrary_action(state, config, rng), config)
        yield state, _arbitrary_action(state, config, rng), config


def pin_side_drag(allowance):
    """(state, action, config) of a drag whose first pin increment alone
    brings a disc within `allowance` of the chain: the disc starts 2e-5
    beyond it from the midpoint of the pin's link, the chain's nearest
    point, and a pin increment of 7.8e-5 toward the disc moves that
    midpoint half as far."""
    config = TaskConfig(obstacle_clearance=TaskConfig().obstacle_radius)
    link = 0.6 / 15
    q = np.array([[0.3 + i * link, 0.2] for i in range(16)])
    o = np.array([[0.3 + link / 2, 0.2 + config.obstacle_radius + allowance + 2e-5]])
    return (EnvState(q, o), ActionPair(PickPlace(1, 0, (0.3, 0.2), (0.3, 0.205))),
            config)


class TestGolden:
    # sha256 of the golden corpus's quantized output states and ExecStats as
    # the executor without the disc-test cull produced them; a change to the
    # executor that moves it changes behaviour
    DIGEST = "29591dead52b44df326e6a4ea94da21395a63d14e9d1f308cc52fde949331c14"

    def test_stale_follower_pick_refused(self):
        """The follower drag is checked against the state the leader's drag
        left, where keypoint 2 no longer lies at the logged pick."""
        state = EnvState(np.array(PUSH_Q), np.array(PUSH_O))
        action = ActionPair(
            PickPlace(2, 13, tuple(PUSH_Q[13]), (0.526700279, 0.472354726)),
            PickPlace(1, 2, tuple(PUSH_Q[2]), (0.544300274, 0.296037746)),
        )
        with pytest.raises(InfeasibleActionError, match="keypoint 2"):
            execute(state, action, TaskConfig())

    # sha256 of the former push path's quantized output state and ExecStats
    PUSH_DIGEST = "c2612bab041a6120ede05420bfc35c8f41fb281883630f486360e6fd9008f35c"

    def test_former_push_path_within_contract(self):
        """The drag ends in contact with a disc, within the 1 mm contract,
        with exact links and in-cone bends, and pushes nothing."""
        state = EnvState(np.array(COLLECT_PUSH_Q), np.array(COLLECT_PUSH_O))
        action = ActionPair(PickPlace(
            1, 3, tuple(COLLECT_PUSH_Q[3]), (0.300705341, 0.510762385)
        ))
        config = TaskConfig()
        out, stats = execute_with_stats(state, action, config)
        assert stats.obstacle_pushes == 0
        assert 0.0 < obstacle_penetration(out, config.obstacle_radius) <= 1e-3
        assert np.abs(link_lengths(out) - state.link_length()).max() < 1e-9
        assert bend_angles(out).max() <= config.joint_limit + 1e-9
        digest = hashlib.sha256(json.dumps([
            out.to_obj(), stats.joint_clamps, stats.obstacle_pushes,
            stats.workspace_clamps, stats.placement_conflicts,
        ]).encode()).hexdigest()
        assert digest == self.PUSH_DIGEST

    # any positive cull allowance is exact; small ones make points fall back
    # to testing every obstacle often and leave few obstacles near
    @pytest.mark.parametrize("allowance", [None, 1e-4, 2e-3])
    def test_outputs_unchanged(self, allowance, monkeypatch):
        if allowance is not None:
            monkeypatch.setattr(simulator, "_CULL_ALLOWANCE", allowance)
        digest = hashlib.sha256()
        count = 0
        for state, action, config in golden_corpus():
            out, stats = execute_with_stats(state, action, config)
            digest.update(json.dumps([
                out.to_obj(), stats.joint_clamps, stats.obstacle_pushes,
                stats.workspace_clamps, stats.placement_conflicts,
            ]).encode())
            count += 1
        assert count == 306
        assert digest.hexdigest() == self.DIGEST

    # _constrained_pass calls over the golden corpus's executes; a pass that
    # moves nothing more keeps every byte but does more work
    PASSES = 20190

    def test_pass_count_unchanged(self, monkeypatch):
        corpus = list(golden_corpus())
        constrained_pass = simulator._constrained_pass
        passes = 0

        def counting_pass(*args):
            nonlocal passes
            passes += 1
            return constrained_pass(*args)

        monkeypatch.setattr(simulator, "_constrained_pass", counting_pass)
        for state, action, config in corpus:
            execute(state, action, config)
        assert passes == self.PASSES

    def test_budgets_bound_clearance(self, monkeypatch):
        """At the start of every pass, each obstacle left out of the tested
        set is farther than the allowance from every keypoint but the pin
        and from every link midpoint, so culling its disc tests changes
        nothing; on the golden corpus and the pin-side drag, at each of
        test_outputs_unchanged's allowances. The pin is left out: the pass
        neither moves nor tests it."""
        constrained_pass = simulator._constrained_pass
        checked = 0

        def checking_pass(xs, ys, pin, *args):
            nonlocal checked
            obstacles, mu, near = args[-3:]
            points = [(x, y) for i, (x, y) in enumerate(zip(xs, ys)) if i != pin]
            points += [(0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[i] + ys[i + 1]))
                       for i in range(len(xs) - 1)]
            for ox, oy in obstacles:
                if (ox, oy) not in near:
                    clearance = min(math.hypot(x - ox, y - oy) for x, y in points) - mu
                    assert clearance > simulator._CULL_ALLOWANCE - 1e-12
                    checked += 1
            return constrained_pass(xs, ys, pin, *args)

        monkeypatch.setattr(simulator, "_constrained_pass", checking_pass)
        for allowance in (simulator._CULL_ALLOWANCE, 1e-4, 2e-3):
            monkeypatch.setattr(simulator, "_CULL_ALLOWANCE", allowance)
            checked = 0
            for state, action, config in golden_corpus():
                execute(state, action, config)
            assert checked > 100_000, allowance
            execute(*pin_side_drag(allowance))


class TestGoalAndReward:
    @pytest.fixture()
    def task_config(self):
        return PINNED

    def test_goal_requires_both_endpoints(self, task_config):
        # both endpoints placed mid-annulus, no obstacles nearby
        m = task_config.keypoint_count
        xs = np.linspace(0.36, 0.64, m)
        q = np.column_stack([xs, np.full(m, 0.3)])
        state = EnvState(q, np.zeros((0, 2)))
        d1 = math.hypot(q[0, 0] - 0.2, q[0, 1] - 0.3)
        d2 = math.hypot(q[-1, 0] - 0.8, q[-1, 1] - 0.3)
        assert task_config.reach_min < d1 < task_config.reach_max
        assert task_config.reach_min < d2 < task_config.reach_max
        assert goal_reached(state, task_config)
        assert reward(state, task_config) == 1

    def test_endpoint_too_close_fails(self, task_config):
        m = task_config.keypoint_count
        xs = np.linspace(0.3, 0.64, m)  # q1 at distance 0.1 < reach_min
        q = np.column_stack([xs, np.full(m, 0.3)])
        state = EnvState(q, np.zeros((0, 2)))
        assert not goal_reached(state, task_config)
        assert reward(state, task_config) == 0

    def test_obstacle_blocks_goal(self, task_config):
        m = task_config.keypoint_count
        xs = np.linspace(0.35, 0.65, m)
        q = np.column_stack([xs, np.full(m, 0.3)])
        blocked = EnvState(q, np.array([[0.65, 0.35]]))  # 0.05 < clearance
        assert not goal_reached(blocked, task_config)


    def test_goal_reached_is_waypoint_valid_of_both_endpoints(self):
        """goal_reached equals the typed waypoint_valid of endpoint 1 for
        arm 1 and endpoint M for arm 2: on generated chains with endpoints
        moved at random, on a NaN endpoint, and on endpoints exactly at
        reach_min, at reach_max and on an obstacle's clearance circle
        (dyadic values, so the distances are exact)."""
        def typed(state, config):
            obstacles = state.obstacles(config)
            return (waypoint_valid(Point(*state.q[0]), config.arm(1), obstacles)
                    and waypoint_valid(Point(*state.q[-1]), config.arm(2),
                                       obstacles))

        cases = []
        config = TaskConfig()
        rng = np.random.default_rng(31)
        for seed in range(100):
            env = generate_env(config, seed)
            q = env.q.copy()
            q[0] = np.array(config.arm_bases[0]) + rng.uniform(-0.5, 0.5, 2)
            q[-1] = np.array(config.arm_bases[1]) + rng.uniform(-0.5, 0.5, 2)
            cases.append((EnvState(q, env.o), config))
        q = generate_env(config, 0).q.copy()
        q[-1, 1] = np.nan
        cases.append((EnvState(q, np.zeros((0, 2))), config))
        exact = TaskConfig(reach_min=0.125, reach_max=0.5, obstacle_radius=0.0625,
                           obstacle_clearance=0.125,
                           arm_bases=((0.25, 0.25), (0.75, 0.25)))
        # endpoint 1 at reach_min, at reach_max or inside; endpoint 2 inside
        # and, with the obstacle, on its clearance circle
        for first in [(0.375, 0.25), (0.25, 0.75), (0.25, 0.5)]:
            for o in [np.zeros((0, 2)), np.array([[0.875, 0.5]])]:
                q = np.linspace(first, (0.75, 0.5), 16)
                cases.append((EnvState(q, o), exact))
        outcomes = set()
        for state, cfg in cases:
            assert goal_reached(state, cfg) == typed(state, cfg)
            outcomes.add(goal_reached(state, cfg))
        assert outcomes == {True, False}


class TestSerialization:
    def test_state_roundtrip_is_quantization(self, task_config):
        state = generate_env(task_config, 3)
        again = EnvState.from_obj(state.to_obj())
        assert again == state.quantized()

    def test_quantized_is_idempotent(self, task_config):
        state = generate_env(task_config, 3).quantized()
        assert state.quantized() == state

    def test_quantize_nine_significant_digits(self):
        assert quantize(0.123456789123) == 0.123456789
        assert quantize(1.0) == 1.0

    def test_quantize_all_is_quantize_bit_for_bit(self):
        """On magnitudes from 1e-310 (subnormal) to 1e308 of both signs, as
        Python and as numpy floats, and on the signed zeros, the infinities
        and nan."""
        rng = np.random.default_rng(7)
        values = (np.sign(rng.uniform(-1.0, 1.0, 20_000))
                  * 10.0 ** rng.uniform(-310.0, 308.0, 20_000)).tolist()
        values += [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308,
                   0.1234567895, 999999999.5]
        numpy_values = [np.float64(v) for v in values]
        assert isinstance(numpy_values[0], np.float64)
        for batch in (values, numpy_values):
            bulk = quantize_all(batch)
            assert len(bulk) == len(batch)
            assert [v.hex() for v in bulk] == [quantize(v).hex() for v in batch]
            assert all(type(v) is float for v in bulk)
        assert quantize_all([]) == []

    def test_quantized_and_to_obj_are_per_element_quantize(self, task_config):
        def per_element(rows):
            return [[quantize(float(x)), quantize(float(y))] for x, y in rows]

        rng = np.random.default_rng(11)
        states = [generate_env(task_config, seed) for seed in range(30)]
        states += [EnvState(s.q + rng.normal(0.0, 1e-3, s.q.shape), s.o)
                   for s in states[:10]]
        states.append(EnvState(states[0].q, np.zeros((0, 2))))
        assert states[-1].o.shape == (0, 2)
        for state in states:
            want = {"q": per_element(state.q), "o": per_element(state.o)}
            got = state.to_obj()
            assert json.dumps(got) == json.dumps(want)
            quantized = state.quantized()
            assert quantized.q.dtype == np.float64
            assert quantized.q.tobytes() == np.array(want["q"]).tobytes()
            assert quantized.o.shape == state.o.shape
            assert quantized.o.tobytes() == (
                np.array(want["o"], dtype=np.float64).reshape(-1, 2).tobytes())

    def test_action_roundtrip(self):
        pp = PickPlace(2, 5, (0.123456789, 0.3), (0.2, 0.4))
        pair = ActionPair(pp, None)
        assert ActionPair.from_obj(pair.to_obj()) == pair


class TestSharedObstacles:
    """States, drags and actions are slotted values; the states of one
    environment hold one read-only obstacle array, through pickle too."""

    def executed(self, task_config, drags=4):
        state = generate_env(task_config, 3).quantized()
        states = [state]
        rng = make_rng(5)
        for _ in range(drags):
            action = _arbitrary_action(states[-1], task_config, rng)
            states.append(execute(states[-1], action, task_config).quantized())
        return states

    def test_value_types_have_no_dict(self, task_config):
        drag = PickPlace(1, 0, (0.1, 0.2), (0.1, 0.25))
        for value in (generate_env(task_config, 3), drag, ActionPair(drag, drag)):
            assert not hasattr(value, "__dict__"), type(value)

    def test_a_given_obstacle_array_is_kept_read_only(self):
        q = straight_chain().q
        o = np.array([[0.2, 0.3], [0.5, 0.1]])
        state = EnvState(q, o)
        assert state.o is o and not o.flags.writeable
        assert EnvState(q, o.ravel()).o.shape == (2, 2)
        assert EnvState(q, []).o.shape == (0, 2)

    def test_execute_and_quantized_keep_the_obstacle_array(self, task_config):
        raw = generate_env(task_config, 3)
        first = raw.quantized()
        assert first.o.tobytes() != raw.o.tobytes()  # rounding moved it
        assert first.o is not raw.o
        states = self.executed(task_config)
        assert all(s.o is states[0].o for s in states)
        assert states[0].quantized().o is states[0].o

    def test_from_obj_takes_like_only_for_equal_bits(self):
        like = EnvState(straight_chain().q, np.array([[0.0, 0.3]]))
        obj = like.to_obj()
        assert EnvState.from_obj(obj, like).o is like.o
        assert EnvState.from_obj(obj).o is not like.o
        obj["o"] = [[-0.0, 0.3]]  # equal as numbers, other bits
        again = EnvState.from_obj(obj, like)
        assert again.o is not like.o
        assert again.o.tobytes() == np.array([[-0.0, 0.3]]).tobytes()

    def test_pickle_goes_through_the_constructor(self, task_config):
        states = self.executed(task_config)
        again = pickle.loads(pickle.dumps(states))
        assert again == states
        for state in again:
            assert not state.q.flags.writeable
            assert not state.o.flags.writeable
            assert state.o is again[0].o

    def test_arrays_own_their_data(self, task_config):
        """A reshaped array is a view over a 1-D base: two ndarray objects
        where one holds the values."""
        states = self.executed(task_config)
        action = _arbitrary_action(states[-1], task_config, make_rng(6))
        read = EnvState.list_from_obj([s.to_obj() for s in states])
        unpickled = pickle.loads(pickle.dumps(states))
        for state in (execute(states[-1], action, task_config), *states, *read,
                      *unpickled):
            assert state.q.base is None and state.o.base is None

    def test_results_read_back_share_one_obstacle_array(self, task_config):
        states = self.executed(task_config)
        steps = len(states) - 1
        result = EpisodeResult(
            True, steps, states, [], [states[-1]] * steps, [None] * steps,
            [{}] * steps, 0)
        obj = json.loads(json.dumps(result.to_obj()))
        again = EpisodeResult.from_obj(obj)
        assert again.to_obj() == result.to_obj()
        assert again.states == states
        assert all(s.o is again.states[0].o for s in again.states)
        assert all(s.o is again.subgoals[0].o for s in again.subgoals)
