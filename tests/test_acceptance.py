"""Acceptance gate.

Builds the full pipeline once at the default configuration (dataset,
encoder, autoencoder), then checks every criterion at its stated tolerance
and prints one PASS/FAIL line per criterion. Heavy: expect tens of minutes.
Set SLACKLINE_ACCEPT_CACHE=<dir> to reuse built artifacts between runs.
"""

import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from slackline.config import TaskConfig, TrainConfig
from slackline.encoder import (
    encode,
    info_nce_loss,
    load_params,
    numerical_gradient,
    save_params,
    similarity,
    train,
    init_params,
    _grad_step,
)
from slackline.explore import (
    Dataset,
    _arbitrary_action,
    collect,
    load_dataset,
    save_dataset,
)
from slackline.geometry import (
    ArmSpec,
    Obstacle,
    Point,
    Segment,
    seg_point_max_dist,
    seg_point_min_dist,
    sequence_feasible,
)
from slackline.harness import (
    FULL_MATRIX,
    EvalArtifacts,
    evaluate,
    spearman,
    sweep,
    sweep_config,
)
from slackline.planner import build_index, retrieve, train_autoencoder
from slackline.seeding import make_rng
from slackline.simulator import (
    InfeasibleActionError,
    execute,
    execute_with_stats,
    generate_env,
)
from slackline.cli import load_ae

EVAL_EPISODES = 300
WORKERS = max(1, min(4, os.cpu_count() or 1))


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@dataclass
class Pipeline:
    config: TaskConfig
    train_config: TrainConfig
    dataset: Dataset
    artifacts: EvalArtifacts
    timings: dict = field(default_factory=dict)


def _build_pipeline(cache_dir: str | None) -> Pipeline:
    config = TaskConfig()
    train_config = TrainConfig()
    if cache_dir:
        os.makedirs(cache_dir, exist_ok=True)
        ds_path = os.path.join(cache_dir, "dataset.jsonl")
        enc_path = os.path.join(cache_dir, "encoder.bin")
        ae_path = os.path.join(cache_dir, "autoencoder.bin")
        stamp_path = os.path.join(cache_dir, "timings.json")
        if all(os.path.exists(p) for p in (ds_path, enc_path, ae_path, stamp_path)):
            dataset = load_dataset(ds_path)
            artifacts = EvalArtifacts(
                dataset, load_params(enc_path), load_ae(ae_path)
            )
            timings = json.load(open(stamp_path))
            return Pipeline(config, train_config, dataset, artifacts, timings)

    t0 = time.perf_counter()
    dataset, _ = collect(config, episodes=1000, seed=0)
    t_collect = time.perf_counter() - t0

    t0 = time.perf_counter()
    enc_report = train(dataset, train_config)
    t_train = time.perf_counter() - t0
    # the per-epoch probe loss must not increase early on; 1e-3 covers the
    # optimizer's wander around the objective floor, ~6% of the descent
    first5 = enc_report.epoch_losses[:5]
    assert all(a >= b - 1e-3 for a, b in zip(first5, first5[1:])), first5
    assert enc_report.epoch_losses[-1] < enc_report.epoch_losses[0]

    t0 = time.perf_counter()
    ae_report = train_autoencoder(dataset, train_config)
    t_ae = time.perf_counter() - t0
    assert ae_report.epoch_losses[:5] == sorted(
        ae_report.epoch_losses[:5], reverse=True
    )

    timings = {"collect": t_collect, "train": t_train, "train_ae": t_ae}
    artifacts = EvalArtifacts(dataset, enc_report.params, ae_report.params)
    if cache_dir:
        save_dataset(dataset, os.path.join(cache_dir, "dataset.jsonl"))
        save_params(
            enc_report.params, os.path.join(cache_dir, "encoder.bin"), train_config
        )
        save_params(
            ae_report.params, os.path.join(cache_dir, "autoencoder.bin"),
            train_config,
        )
        json.dump(timings, open(os.path.join(cache_dir, "timings.json"), "w"))
    return Pipeline(config, train_config, dataset, artifacts, timings)


@pytest.fixture(scope="session")
def pipeline() -> Pipeline:
    return _build_pipeline(os.environ.get("SLACKLINE_ACCEPT_CACHE"))


@pytest.fixture(scope="session")
def matrix_results(pipeline):
    t0 = time.perf_counter()
    table, per_cell = evaluate(
        list(FULL_MATRIX),
        EVAL_EPISODES,
        pipeline.config,
        seed=0,
        artifacts=pipeline.artifacts,
        workers=WORKERS,
    )
    pipeline.timings["eval_matrix"] = time.perf_counter() - t0
    return table, per_cell


@pytest.fixture(scope="session")
def sweep_results(pipeline):
    out = {}
    t0 = time.perf_counter()
    out["reach_max"] = sweep(
        "reach_max",
        [0.35, 0.40, 0.45, 0.50, 0.55],
        EVAL_EPISODES,
        pipeline.config,
        seed=0,
        artifacts=pipeline.artifacts,
        workers=WORKERS,
    )
    out["obstacle_radius"] = sweep(
        "obstacle_radius",
        [0.02, 0.03, 0.04, 0.05, 0.06],
        EVAL_EPISODES,
        pipeline.config,
        seed=0,
        artifacts=pipeline.artifacts,
        workers=WORKERS,
    )
    pipeline.timings["sweeps"] = time.perf_counter() - t0
    return out


def test_criterion_1_geometry_oracle_equivalence():
    rng = np.random.default_rng(424242)
    t0 = time.perf_counter()
    n_samples = 10_000
    ts = np.linspace(0.0, 1.0, n_samples)
    checked = 0
    bool_agree = 0
    dist_worst = 0.0
    for _ in range(1000):
        ax, ay, bx, by = rng.uniform(-0.5, 1.5, size=4)
        seg = Segment(Point(ax, ay), Point(bx, by))
        base = Point(*rng.uniform(0.0, 1.0, size=2))
        arm = ArmSpec(base, 0.15, 0.45)
        obstacles = [
            Obstacle(Point(*rng.uniform(0.0, 1.0, size=2)), 0.04, 0.1)
            for _ in range(int(rng.integers(0, 4)))
        ]
        xs = ax + ts * (bx - ax)
        ys = ay + ts * (by - ay)

        # distance agreement against the dense oracle
        d = np.hypot(xs - base.x, ys - base.y)
        dist_worst = max(
            dist_worst,
            abs(seg_point_min_dist(seg, base) - float(d.min())),
            abs(seg_point_max_dist(seg, base) - float(d.max())),
        )

        got = sequence_feasible(seg, arm, obstacles)
        want = (d > arm.reach_min).all() and (d < arm.reach_max).all()
        margins = [
            abs(seg_point_min_dist(seg, base) - arm.reach_min),
            abs(seg_point_max_dist(seg, base) - arm.reach_max),
        ]
        for ob in obstacles:
            do = np.hypot(xs - ob.center.x, ys - ob.center.y)
            want = want and (do > ob.clearance).all()
            margins.append(abs(seg_point_min_dist(seg, ob.center) - ob.clearance))
        if min(margins) < 1e-4:
            continue  # within sampling resolution of a threshold
        checked += 1
        bool_agree += got == bool(want)
    elapsed = time.perf_counter() - t0
    report(
        1,
        bool_agree == checked and dist_worst <= 1e-4 and elapsed < 5.0,
        f"boolean {bool_agree}/{checked}, max distance err {dist_worst:.2e}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_simulator_invariants(pipeline):
    config = pipeline.config
    mu = config.obstacle_radius
    t0 = time.perf_counter()
    executed = 0
    link_worst = 0.0
    bend_worst = 0.0
    pen_worst = 0.0
    pin_worst = 0.0
    pin_checked = 0
    env_i = 0
    while executed < 10_000:
        state = generate_env(config, 600_000 + env_i)
        nominal = state.link_length()
        rng = make_rng(61, env_i)
        env_i += 1
        for _ in range(40):
            action = _arbitrary_action(state, config, rng)
            if action is None:
                break
            new_state, stats = execute_with_stats(state, action, config)
            executed += 1
            q = new_state.q
            d = np.diff(q, axis=0)
            link_worst = max(
                link_worst, float(np.abs(np.hypot(d[:, 0], d[:, 1]) - nominal).max())
            )
            for j in range(1, q.shape[0] - 1):
                a = q[j] - q[j - 1]
                b = q[j + 1] - q[j]
                bend = abs(math.atan2(a[0] * b[1] - a[1] * b[0], float(a @ b)))
                bend_worst = max(bend_worst, bend)
            pts = np.vstack([q, 0.5 * (q[:-1] + q[1:])])
            for ox, oy in new_state.o:
                pen = mu - float(np.hypot(pts[:, 0] - ox, pts[:, 1] - oy).min())
                pen_worst = max(pen_worst, pen)
            pp = action.leader
            # only a workspace clamp of the pin target or an obstacle at the
            # path can obstruct the pin; cone clamps never move it, since the
            # projection works outward from the pin and the exact rebuild
            # starts at it
            unobstructed = stats.workspace_clamps == 0
            if unobstructed and len(state.o):
                path_clear = all(
                    float(np.hypot(state.o[:, 0] - x, state.o[:, 1] - y).min())
                    > mu + config.max_step
                    for x, y in (pp.pick, pp.place)
                )
                unobstructed = path_clear
            if unobstructed:
                pin_checked += 1
                pin_worst = max(
                    pin_worst,
                    math.hypot(
                        q[pp.pick_index, 0] - pp.place[0],
                        q[pp.pick_index, 1] - pp.place[1],
                    ),
                )
            state = new_state
            if executed >= 10_000:
                break
    elapsed = time.perf_counter() - t0
    ok = (
        link_worst < 1e-9
        and bend_worst <= pipeline.config.joint_limit + 1e-9
        and pen_worst <= 1e-3
        and pin_worst <= 1e-6
        and pin_checked > 500
        and elapsed < 60.0
    )
    report(
        2,
        ok,
        f"{executed} actions: link {link_worst:.2e}, bend excess "
        f"{bend_worst - pipeline.config.joint_limit:.2e}, penetration "
        f"{pen_worst:.2e}, pin fidelity {pin_worst:.2e} over {pin_checked} "
        f"unobstructed, {elapsed:.1f}s",
    )


def test_criterion_3_gradient_and_loss_values():
    rng = np.random.default_rng(11)
    params = init_params(50, 4, (1.0, 0.6), seed=3, hidden=8)
    n_params = sum(w.size for w in params.weights) + sum(
        b.size for b in params.biases
    )
    groups, negatives = 4, 3
    x = rng.uniform(0.0, 1.0, size=(groups * (2 + negatives), 50))
    _, gw, gb = _grad_step(params, x, groups, negatives)
    probes = []
    pr = np.random.default_rng(7)
    seen = set()
    while len(probes) < 500:
        layer = int(pr.integers(len(params.weights)))
        kind = int(pr.integers(2))
        if kind == 0:
            idx = (
                int(pr.integers(params.weights[layer].shape[0])),
                int(pr.integers(params.weights[layer].shape[1])),
            )
        else:
            idx = (int(pr.integers(params.biases[layer].shape[0])),)
        key = (layer, kind, idx)
        if key in seen:
            continue
        seen.add(key)
        probes.append((layer, kind) + idx)
    numeric = numerical_gradient(params, x, groups, negatives, probes, h=1e-5)
    worst = 0.0
    for probe, g_num in zip(probes, numeric):
        layer, kind = probe[0], probe[1]
        g_ana = gw[layer][probe[2:]] if kind == 0 else gb[layer][probe[2:]]
        rel = abs(g_ana - g_num) / max(abs(g_ana), abs(g_num), 1e-10)
        worst = max(worst, rel)

    e1 = np.zeros(6)
    e1[0] = 1.0
    ln4_err = abs(info_nce_loss(e1, e1, np.stack([e1] * 3)) - math.log(4.0))
    report(
        3,
        worst <= 1e-4 and ln4_err <= 1e-9 and n_params >= 500,
        f"max rel gradient err {worst:.2e} over 500 probes "
        f"({n_params} params), ln4 err {ln4_err:.1e}",
    )


def test_criterion_4_retrieval_exactness(pipeline):
    sub = Dataset(
        pipeline.dataset.episodes[:50],
        pipeline.dataset.goal_pool,
        pipeline.dataset.config,
    )
    params = pipeline.artifacts.encoder
    index = build_index(sub, params)
    hits = 0
    total = 0
    for j, ep in enumerate(sub.episodes):
        for state in ep.states:
            goal, (jj, _) = retrieve(index, params, state)
            total += 1
            hits += (jj == j) and (goal == ep.achieved_goal)

    agree = 0
    for i in range(1000):
        query = generate_env(pipeline.config, 700_000 + i)
        z = encode(params, query)
        raw = int(np.argmax(index.embeddings @ z))
        sims = np.exp(index.embeddings @ z)  # exp of each inner product
        agree += int(np.argmax(sims)) == raw
    report(
        4,
        hits == total and agree == 1000,
        f"self-retrieval {hits}/{total}, argmax equivalence {agree}/1000",
    )


def test_criterion_5_ablation_ordering(pipeline, matrix_results):
    table, _ = matrix_results
    contr = table.row("contrastive", "leader-follower")
    rp = table.row("random", "leader-follower")
    fixed = table.row("fixed", "leader-follower")
    others = [r for r in table.rows if r is not contr]
    top = all(contr.success_rate >= r.success_rate for r in others)
    margin_rp = contr.success_rate - rp.success_rate
    margin_fixed = contr.success_rate - fixed.success_rate
    fewer_actions = contr.mean_actions < rp.mean_actions
    elapsed = pipeline.timings["eval_matrix"]
    four_worker_equiv = elapsed * WORKERS / 4.0
    lines = "; ".join(
        f"{r.cell} {r.success_rate:.1f}%/{r.mean_actions:.1f}" for r in table.rows
    )
    ok = (
        top
        and margin_rp >= 15.0
        and margin_fixed >= 15.0
        and fewer_actions
        and four_worker_equiv < 900.0
    )
    report(
        5,
        ok,
        f"{lines} | margins rp {margin_rp:.1f}pp fixed {margin_fixed:.1f}pp, "
        f"runtime {elapsed:.0f}s ({WORKERS} workers; 4-worker equiv "
        f"{four_worker_equiv:.0f}s)",
    )


def test_criterion_6_sweep_directionality(sweep_results):
    reach, _ = sweep_results["reach_max"]
    radius, _ = sweep_results["obstacle_radius"]
    rho_reach = spearman(
        [p.value for p in reach.points], reach.success_rates()
    )
    rho_radius = spearman(
        [p.value for p in radius.points], radius.success_rates()
    )
    report(
        6,
        rho_reach >= 0.8 and rho_radius <= -0.8,
        f"reach_max rates {['%.1f' % r for r in reach.success_rates()]} "
        f"rho {rho_reach:+.2f}; obstacle_radius rates "
        f"{['%.1f' % r for r in radius.success_rates()]} rho {rho_radius:+.2f}",
    )


def test_criterion_7_pipeline_budget(pipeline, matrix_results):
    t = pipeline.timings
    total = t["collect"] + t["train"] + t["eval_matrix"]
    # episode evaluation parallelizes linearly in workers; collection and
    # training are counted at full single-core cost
    four_core = t["collect"] + t["train"] + t["eval_matrix"] * WORKERS / 4.0
    report(
        7,
        four_core < 1800.0,
        f"collect {t['collect']:.0f}s + train {t['train']:.0f}s + eval "
        f"{t['eval_matrix']:.0f}s = {total:.0f}s raw "
        f"({four_core:.0f}s at 4-core equivalence, budget 1800s)",
    )


def test_criterion_8_action_feasibility_audit(pipeline, matrix_results, sweep_results):
    config = pipeline.config
    batches = [(config, matrix_results[1])]
    # each sweep point is audited under the config it was planned with
    for param, (result, per_value) in sweep_results.items():
        for point, results in zip(result.points, per_value):
            batches.append((sweep_config(config, param, point.value), [results]))
    total = 0
    feasible = 0
    dual = 0
    separated = 0
    actions = 0
    replayed = 0
    for cfg, per_cell in batches:
        for results in per_cell:
            for episode in results:
                obstacles = episode.states[0].obstacles(cfg)
                for t, action in enumerate(episode.actions):
                    for pp in action.sequences():
                        total += 1
                        feasible += sequence_feasible(
                            pp.segment(), cfg.arm(pp.arm_id), obstacles
                        )
                    if action.follower is not None:
                        dual += 1
                        sep = math.hypot(
                            action.leader.pick[0] - action.follower.pick[0],
                            action.leader.pick[1] - action.follower.pick[1],
                        )
                        separated += sep > cfg.min_pick_separation
                    # the executor checks each drag against the state it
                    # starts from; the logged action must pass and reproduce
                    # the logged next state bit for bit
                    actions += 1
                    try:
                        after = execute(episode.states[t], action, cfg)
                    except InfeasibleActionError:
                        continue
                    replayed += after.quantized() == episode.states[t + 1]
    report(
        8,
        feasible == total and separated == dual and replayed == actions
        and total > 10_000,
        f"feasibility {feasible}/{total}, separation {separated}/{dual}, "
        f"replay {replayed}/{actions}",
    )
