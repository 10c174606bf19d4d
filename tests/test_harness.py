import json
import math
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import slackline.policy
from slackline.config import TaskConfig, TrainConfig
from slackline.geometry import sequence_feasible
from slackline.harness import (
    FULL_MATRIX,
    EvalArtifacts,
    MetricsTable,
    MissingModelError,
    UnknownCellError,
    evaluate,
    make_controller,
    make_planner,
    render_curve_svg,
    render_episode,
    render_state_svg,
    spearman,
    summarize,
    sweep,
    sweep_config,
)
from slackline.planner import train_autoencoder
from slackline.policy import EpisodeResult, run_episode
from slackline.seeding import derive_seed
from slackline.simulator import generate_env


@pytest.fixture(scope="module")
def artifacts(small_dataset, small_encoder):
    return EvalArtifacts(small_dataset, small_encoder)


@pytest.fixture(scope="module")
def small_table(task_config, artifacts):
    return evaluate(
        [("contrastive", "leader-follower"), ("random", "leader-follower")],
        6,
        task_config,
        seed=17,
        artifacts=artifacts,
    )


class TestEvaluate:
    def test_paired_seeds_across_cells(self, small_table):
        table, per_cell = small_table
        assert len(table.env_seeds) == 6
        for results in per_cell:
            assert len(results) == 6
        # both cells saw identical environments: initial states match
        for a, b in zip(per_cell[0], per_cell[1]):
            assert a.states[0] == b.states[0]

    def test_metrics_match_hand_recomputation(self, task_config, small_table):
        table, per_cell = small_table
        for row, results in zip(table.rows, per_cell):
            succ = sum(1 for r in results if r.success)
            assert row.success_rate == pytest.approx(100.0 * succ / len(results))
            counted = [
                r.steps if r.success else task_config.horizon_max
                for r in results
            ]
            assert row.mean_actions == pytest.approx(
                sum(counted) / len(counted)
            )
            var = sum((c - row.mean_actions) ** 2 for c in counted) / len(counted)
            assert row.std_actions == pytest.approx(math.sqrt(var))

    def test_deterministic(self, task_config, artifacts, small_table):
        table, _ = small_table
        again, _ = evaluate(
            [("contrastive", "leader-follower"), ("random", "leader-follower")],
            6,
            task_config,
            seed=17,
            artifacts=artifacts,
        )
        assert again.csv() == table.csv()

    def test_workers_do_not_change_results(self, task_config, artifacts):
        """Every results line of a multi-cell matrix, over an episode count
        that no worker count divides, as `slackline eval` writes them."""
        cells = [("contrastive", "leader-follower"), ("fixed", "only-leader"),
                 ("random", "random-control"), ("template", "leader-follower")]
        runs = []
        for workers in (1, 2, 3):
            table, per_cell = evaluate(cells, 7, task_config, 23, artifacts,
                                       workers=workers)
            lines = [json.dumps(r.to_obj(), separators=(",", ":"))
                     for results in per_cell for r in results]
            runs.append((table.csv_full(), lines))
        assert len(runs[0][1]) == 4 * 7
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_episode_states_share_one_obstacle_array(self, task_config, artifacts):
        """At workers 1 and 2, the states of one environment's episodes
        hold one read-only `o`, and pooled states equal in-process ones."""
        cells = [("contrastive", "leader-follower"), ("random", "random-control")]
        runs = []
        for workers in (1, 2):
            _, per_cell = evaluate(cells, 3, task_config, 23, artifacts,
                                   workers=workers)
            for results in zip(*per_cell):
                shared = results[0].states[0].o
                for r in results:
                    assert all(s.o is shared for s in r.states)
                    for state in r.states + r.subgoals:
                        assert not state.q.flags.writeable
                        assert not state.o.flags.writeable
            runs.append([[(r.states, r.subgoals) for r in rs] for rs in per_cell])
        assert runs[1] == runs[0]

    def test_csv_header_pinned(self, small_table):
        table, _ = small_table
        assert table.csv().splitlines()[0] == (
            "cell,planner,controller,episodes,success_rate,mean_actions,"
            "std_actions"
        )

    def test_unknown_names_rejected(self, task_config, artifacts):
        with pytest.raises(UnknownCellError) as err:
            evaluate([("bogus", "leader-follower")], 2, task_config, 1, artifacts)
        for name in ("contrastive", "fixed", "random", "template", "autoencoder"):
            assert name in str(err.value)
        with pytest.raises(UnknownCellError):
            evaluate([("contrastive", "bogus")], 2, task_config, 1, artifacts)

    def test_missing_model_rejected(self, task_config, small_dataset):
        bare = EvalArtifacts(small_dataset)
        with pytest.raises(MissingModelError):
            evaluate([("contrastive", "leader-follower")], 2, task_config, 1, bare)
        with pytest.raises(MissingModelError):
            evaluate([("autoencoder", "leader-follower")], 2, task_config, 1, bare)

    def test_degenerate_never_acting_controller(self, task_config, artifacts):
        class NeverActs:
            name = "never"

            def select(self, state, subgoal, rng):
                return None

        import slackline.harness as H

        planner = make_planner("fixed", artifacts, 3)
        results = []
        for i in range(3):
            env = generate_env(task_config, 9000 + i)
            result = run_episode(env, planner, NeverActs(), task_config, i)
            results.append(result)
        # no leader ends each episode at once as no-action; metrics stay bounded
        row = summarize("fixed", "never", results, task_config.horizon_max)
        assert 0.0 <= row.success_rate <= 100.0
        assert row.mean_actions <= task_config.horizon_max


@pytest.fixture(scope="module")
def full_artifacts(small_dataset, small_encoder):
    cfg = TrainConfig(embed_dim=8, batch_anchors=16, epochs=3, seed=2)
    return EvalArtifacts(small_dataset, small_encoder,
                         train_autoencoder(small_dataset, cfg).params)


def results_lines(per_cell) -> list[str]:
    return [json.dumps(r.to_obj(), separators=(",", ":"))
            for results in per_cell for r in results]


class TestTransitionTable:
    """The cells of one environment share one table of executed drags."""

    def test_same_bytes_as_cells_run_alone(self, task_config, full_artifacts):
        """csv_full() and every results line of the full matrix equal those
        of each cell's episodes run one by one, with no table."""
        n, seed = 7, 41
        alone = []
        for p, c in FULL_MATRIX:
            planner = make_planner(p, full_artifacts, seed)
            controller = make_controller(c, task_config)
            alone.append([
                run_episode(generate_env(task_config, derive_seed(seed, "env", i)),
                            planner, controller, task_config,
                            derive_seed(seed, "episode", i))
                for i in range(n)
            ])
        rows = [summarize(p, c, results, task_config.horizon_max)
                for (p, c), results in zip(FULL_MATRIX, alone)]
        env_seeds = [derive_seed(seed, "env", i) for i in range(n)]
        want = (MetricsTable(rows, env_seeds).csv_full(), results_lines(alone))
        for workers in (1, 2):
            table, per_cell = evaluate(list(FULL_MATRIX), n, task_config, seed,
                                       full_artifacts, workers=workers)
            assert (table.csv_full(), results_lines(per_cell)) == want

    def test_repeated_drags_are_not_executed(self, task_config, full_artifacts,
                                             monkeypatch):
        calls = 0
        execute = slackline.policy.execute

        def counting(*args):
            nonlocal calls
            calls += 1
            return execute(*args)

        monkeypatch.setattr(slackline.policy, "execute", counting)
        _, per_cell = evaluate(list(FULL_MATRIX), 7, task_config, 41,
                               full_artifacts)
        drags = sum(len(list(a.sequences()))
                    for results in per_cell for r in results for a in r.actions)
        assert 0 < calls < drags


class TestActionAudit:
    def test_logged_actions_pass_feasibility_post_hoc(
        self, task_config, small_table
    ):
        _, per_cell = small_table
        checked = 0
        for results in per_cell:
            for result in results:
                obstacles = result.states[0].obstacles(task_config)
                for action in result.actions:
                    for pp in action.sequences():
                        assert sequence_feasible(
                            pp.segment(), task_config.arm(pp.arm_id), obstacles
                        )
                        checked += 1
                    if action.follower is not None:
                        sep = math.hypot(
                            action.leader.pick[0] - action.follower.pick[0],
                            action.leader.pick[1] - action.follower.pick[1],
                        )
                        assert sep > task_config.min_pick_separation
        assert checked > 20


class TestSweep:
    def test_single_value_degenerates_to_evaluate(self, task_config, artifacts):
        result, _ = sweep(
            "reach_max", [0.45], 4, task_config, 29, artifacts
        )
        table, _ = evaluate(
            [("contrastive", "leader-follower")], 4, task_config, 29, artifacts
        )
        assert result.points[0].metrics.success_rate == pytest.approx(
            table.rows[0].success_rate
        )

    def test_values_must_be_sorted(self, task_config, artifacts):
        with pytest.raises(ValueError):
            sweep("reach_max", [0.5, 0.4], 2, task_config, 1, artifacts)

    def test_unknown_param(self, task_config, artifacts):
        with pytest.raises(UnknownCellError):
            sweep("bogus", [0.1], 2, task_config, 1, artifacts)

    def test_csv_shape(self, task_config, artifacts):
        result, _ = sweep("obstacle_radius", [0.03, 0.05], 3, task_config, 7,
                          artifacts)
        lines = result.csv().splitlines()
        assert lines[0] == "param,value,episodes,success_rate,mean_actions,std_actions"
        assert len(lines) == 3


class TestSpearman:
    def test_perfect_monotone(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
        assert spearman([1, 2, 3, 4], [5, 4, 3, 2]) == pytest.approx(-1.0)

    def test_known_value_with_ties(self):
        # hand-computed: ranks x = [1,2,3,4], y = [1.5, 1.5, 3, 4]
        got = spearman([1, 2, 3, 4], [7, 7, 8, 9])
        mx, my = 2.5, 2.5
        rx = [1, 2, 3, 4]
        ry = [1.5, 1.5, 3, 4]
        cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
        want = cov / math.sqrt(
            sum((a - mx) ** 2 for a in rx) * sum((b - my) ** 2 for b in ry)
        )
        assert got == pytest.approx(want)

    def test_uncorrelated(self):
        assert abs(spearman([1, 2, 3, 4], [2, 1, 4, 3])) < 1.0


class TestRendering:
    def test_episode_frames(self, tmp_path, task_config, artifacts):
        planner = make_planner("contrastive", artifacts, 3)
        controller = make_controller("leader-follower", task_config)
        env = generate_env(task_config, 31)
        result = run_episode(env, planner, controller, task_config, 99)
        paths = render_episode(result, task_config, str(tmp_path))
        assert len(paths) == result.steps + 1
        for p in paths:
            ET.fromstring(open(p).read())  # well-formed XML

    def test_byte_deterministic(self, task_config, artifacts):
        planner = make_planner("contrastive", artifacts, 3)
        controller = make_controller("leader-follower", task_config)
        env = generate_env(task_config, 31)
        r1 = run_episode(env, planner, controller, task_config, 99)
        r2 = run_episode(env, planner, controller, task_config, 99)
        svg1 = render_state_svg(r1.states[0], task_config, r1.subgoals[0])
        svg2 = render_state_svg(r2.states[0], task_config, r2.subgoals[0])
        assert svg1 == svg2

    def test_stale_frames_removed(self, tmp_path, task_config):
        """A 5-frame render into the folder of a 13-frame one leaves exactly
        5 frames, and every file that is not a frame."""
        env = generate_env(task_config, 31)

        def result(steps):
            return EpisodeResult(False, steps, [env] * (steps + 1), [],
                                 [env] * steps, [None] * steps, [], 0, "horizon")

        others = ["notes.txt", "step_01.svg", "step_0012.svg", "step_012.png"]
        for name in others:
            (tmp_path / name).write_text("kept")
        assert len(render_episode(result(12), task_config, str(tmp_path))) == 13
        paths = render_episode(result(4), task_config, str(tmp_path))
        frames = [f"step_{t:03d}.svg" for t in range(5)]
        assert paths == [str(tmp_path / name) for name in frames]
        assert sorted(os.listdir(tmp_path)) == sorted(frames + others)

    def test_curve_svg_well_formed(self, task_config, artifacts):
        result, _ = sweep("reach_max", [0.40, 0.45], 3, task_config, 7, artifacts)
        svg = render_curve_svg(result)
        ET.fromstring(svg)


class TestRadiusSweepCoupling:
    def test_gripper_margin_preserved(self, task_config, artifacts, monkeypatch):
        # every sweep point runs under sweep_config; the radius sweep moves
        # the clearance with the radius, the reach sweep leaves it alone
        import slackline.harness as harness

        seen = []
        real_evaluate = harness.evaluate

        def recording_evaluate(cells, n, config, *args):
            seen.append(config)
            return real_evaluate(cells, n, config, *args)

        monkeypatch.setattr(harness, "evaluate", recording_evaluate)
        margin = task_config.obstacle_clearance - task_config.obstacle_radius
        assert margin == pytest.approx(0.06)
        result, _ = sweep(
            "obstacle_radius", [0.02, 0.06], 2, task_config, 3, artifacts
        )
        assert [p.value for p in result.points] == [0.02, 0.06]
        assert seen == [
            sweep_config(task_config, "obstacle_radius", v) for v in (0.02, 0.06)
        ]
        for cfg, v in zip(seen, (0.02, 0.06)):
            assert cfg.obstacle_radius == v
            assert cfg.obstacle_clearance == pytest.approx(v + margin)

        seen.clear()
        sweep("reach_max", [0.4, 0.5], 2, task_config, 3, artifacts)
        assert seen == [
            sweep_config(task_config, "reach_max", v) for v in (0.4, 0.5)
        ]
        for cfg, v in zip(seen, (0.4, 0.5)):
            assert cfg.reach_max == v
            assert cfg.obstacle_radius == task_config.obstacle_radius
            assert cfg.obstacle_clearance == task_config.obstacle_clearance
