import numpy as np
import pytest

from slackline.config import TrainConfig
from slackline.encoder import encode, similarity
from slackline.planner import (
    AutoencoderPlanner,
    ContrastivePlanner,
    EmptyIndexError,
    FixedPlanner,
    RandomPlanner,
    TemplatePlanner,
    build_index,
    retrieve,
    train_autoencoder,
)
from slackline.simulator import goal_reached


@pytest.fixture(scope="module")
def index(small_dataset, small_encoder):
    return build_index(small_dataset, small_encoder)


class TestBuildIndex:
    def test_one_entry_per_state(self, small_dataset, index):
        want = sum(len(ep.states) for ep in small_dataset.episodes)
        assert len(index) == want

    def test_entries_ordered_lexicographically(self, index):
        pairs = list(zip(index.episode_idx, index.step_idx))
        assert pairs == sorted(pairs)

    def test_goals_satisfy_goal_predicate(self, task_config, index):
        for goal in index.goals:
            assert goal_reached(goal, task_config)

    def test_rebuild_identical(self, small_dataset, small_encoder, index):
        again = build_index(small_dataset, small_encoder)
        assert np.array_equal(again.embeddings, index.embeddings)


class TestRetrieve:
    def test_stored_state_returns_own_episode_goal(
        self, small_dataset, small_encoder, index
    ):
        for j, ep in enumerate(small_dataset.episodes):
            for state in ep.states:
                goal, (jj, tt) = retrieve(index, small_encoder, state)
                assert jj == j
                assert goal == ep.achieved_goal

    def test_single_episode_index(self, small_dataset, small_encoder):
        from slackline.explore import Dataset

        one = Dataset(small_dataset.episodes[:1], small_dataset.goal_pool,
                      small_dataset.config)
        idx = build_index(one, small_encoder)
        goal = retrieve(idx, small_encoder, small_dataset.episodes[3].states[0])[0]
        assert goal == one.episodes[0].achieved_goal

    def test_argmax_matches_raw_inner_product(
        self, task_config, small_encoder, index
    ):
        from slackline.simulator import generate_env

        for seed in range(50):
            query = generate_env(task_config, 5000 + seed)
            z = encode(small_encoder, query)
            raw = int(np.argmax(index.embeddings @ z))
            sims = np.array(
                [similarity(z, e) for e in index.embeddings]
            )
            assert int(np.argmax(sims)) == raw

    def test_empty_index_raises(self, small_encoder, small_dataset):
        from slackline.explore import Dataset

        empty = Dataset((), (), small_dataset.config)
        with pytest.raises(EmptyIndexError):
            build_index(empty, small_encoder)
        with pytest.raises(EmptyIndexError):
            TemplatePlanner(empty)
        ae = train_autoencoder(
            small_dataset, TrainConfig(embed_dim=8, batch_anchors=16, epochs=1)
        ).params
        with pytest.raises(EmptyIndexError):
            AutoencoderPlanner(ae, empty)


class TestLookupContract:
    """Every retrieval planner picks through `EmbeddingIndex.best`, whose ties
    break to the first row: with every episode stored twice, each stored
    state retrieves its first copy."""

    def test_duplicates_resolve_to_first_copy(self, small_dataset,
                                              small_encoder):
        from slackline.explore import Dataset

        doubled = Dataset(small_dataset.episodes * 2, small_dataset.goal_pool,
                          small_dataset.config)
        ae = train_autoencoder(
            small_dataset, TrainConfig(embed_dim=8, batch_anchors=16, epochs=3,
                                       seed=2)
        ).params
        planners = [ContrastivePlanner(build_index(doubled, small_encoder),
                                       small_encoder),
                    TemplatePlanner(doubled), AutoencoderPlanner(ae, doubled)]
        for planner in planners:
            planner.reset(0)
            for j, ep in enumerate(small_dataset.episodes):
                for t, state in enumerate(ep.states):
                    goal, ident = planner.plan(state)
                    assert ident == (j, t), planner.name
                    assert goal == ep.achieved_goal

    def test_best_breaks_ties_to_first_row(self, index):
        scores = np.zeros(len(index))
        scores[[3, 7, len(index) - 1]] = 1.0
        goal, (j, t) = index.best(scores)
        assert (j, t) == (int(index.episode_idx[3]), int(index.step_idx[3]))
        assert goal == index.goals[j]

    def test_best_on_empty_index_raises(self, index):
        from slackline.planner import EmbeddingIndex

        empty = EmbeddingIndex(index.embeddings[:0], index.episode_idx[:0],
                               index.step_idx[:0], ())
        with pytest.raises(EmptyIndexError):
            empty.best(np.zeros(0))


class TestAblationPlanners:
    def test_fixed_constant_across_queries_and_episodes(self, small_dataset):
        goals = tuple(ep.achieved_goal for ep in small_dataset.episodes)
        planner = FixedPlanner(goals, seed=4)
        picks = set()
        for ep_seed in range(5):
            planner.reset(ep_seed)
            for state in small_dataset.episodes[0].states:
                goal, ident = planner.plan(state)
                picks.add(ident[0])
        assert len(picks) == 1

    def test_random_redraws_per_episode(self, small_dataset):
        goals = tuple(ep.achieved_goal for ep in small_dataset.episodes)
        planner = RandomPlanner(goals, seed=4)
        choices = []
        for ep_seed in range(30):
            planner.reset(ep_seed)
            choices.append(planner.plan(small_dataset.episodes[0].states[0])[1][0])
        assert len(set(choices)) > 1
        # within an episode the choice is constant
        planner.reset(7)
        a = planner.plan(small_dataset.episodes[0].states[0])[1]
        b = planner.plan(small_dataset.episodes[1].states[0])[1]
        assert a == b

    def test_random_deterministic_per_episode_seed(self, small_dataset):
        goals = tuple(ep.achieved_goal for ep in small_dataset.episodes)
        p1 = RandomPlanner(goals, seed=4)
        p2 = RandomPlanner(goals, seed=4)
        p1.reset(123)
        p2.reset(123)
        assert p1.choice == p2.choice

    def test_template_exact_match(self, small_dataset):
        planner = TemplatePlanner(small_dataset)
        for j, ep in enumerate(small_dataset.episodes[:5]):
            for state in ep.states:
                goal, (jj, _) = planner.plan(state)
                assert jj == j
                assert goal == ep.achieved_goal

    def test_planner_outputs_satisfy_goal(self, task_config, small_dataset):
        from slackline.simulator import generate_env

        goals = tuple(ep.achieved_goal for ep in small_dataset.episodes)
        planners = [
            FixedPlanner(goals, 1),
            RandomPlanner(goals, 1),
            TemplatePlanner(small_dataset),
        ]
        for planner in planners:
            planner.reset(9)
            goal, _ = planner.plan(generate_env(task_config, 777))
            assert goal_reached(goal, task_config)


class TestAutoencoder:
    def test_loss_decreases(self, small_dataset):
        # strict epoch-over-epoch decrease is asserted on the full-scale
        # dataset by the acceptance build; the tiny fixture checks the trend
        cfg = TrainConfig(embed_dim=8, batch_anchors=16, epochs=5, seed=2)
        report = train_autoencoder(small_dataset, cfg)
        assert report.epoch_losses[-1] < report.epoch_losses[0]

    def test_deterministic(self, small_dataset):
        cfg = TrainConfig(embed_dim=8, batch_anchors=16, epochs=2, seed=2)
        a = train_autoencoder(small_dataset, cfg)
        b = train_autoencoder(small_dataset, cfg)
        assert a.epoch_losses == b.epoch_losses

    def test_planner_exact_match_after_training(self, small_dataset):
        cfg = TrainConfig(embed_dim=8, batch_anchors=16, epochs=3, seed=2)
        report = train_autoencoder(small_dataset, cfg)
        planner = AutoencoderPlanner(report.params, small_dataset)
        ep = small_dataset.episodes[2]
        goal, (jj, _) = planner.plan(ep.states[0])
        assert jj == 2
        assert goal == ep.achieved_goal


class TestRetrievalSpeed:
    def test_linear_scan_under_10ms_at_scale(self, small_encoder, task_config):
        import time

        from slackline.simulator import generate_env

        rng = np.random.default_rng(0)
        z = rng.normal(size=(20_000, small_encoder.embed_dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        query = generate_env(task_config, 1)
        zq = encode(small_encoder, query)
        t0 = time.perf_counter()
        reps = 20
        for _ in range(reps):
            int(np.argmax(z @ zq))
        per_query = (time.perf_counter() - t0) / reps
        assert per_query < 0.010
