"""The benchmark's four workloads, each driven through the package's public
functions the way the matching CLI command drives them.

- collect: goal pool + min-horizon collection + save, single process.
  Executor and controller work; the encoder and planners are idle.
- train: encoder.train then planner.train_autoencoder on a dataset loaded
  from disk. Encoder passes and Adam; the simulator is idle.
- eval: harness.evaluate over FULL_MATRIX with paired seeds on a fork pool,
  plus the report files `slackline eval` writes. The closed loop: planner
  queries and controller selection between executor calls.
- sweep-clutter: harness.sweep over the two largest obstacle radii of
  scripts/reproduce_sweeps.py for contrastive+leader-follower, one pool per
  point. Chains press against large discs, so the executor's push and
  placement-conflict path does the work.

A round is a fixed unit of work, a few seconds long. A run's rounds cycle
through the workload's input sets (its *_sets field of the scale), derived
from the workload seed (round i uses set i mod their number), so
success_pct and the
digests always cover the same inputs however many rounds the time allows; a
round that repeats an input set must repeat its digests.

The train, eval and sweep-clutter workloads consume one fixture per
checkout: the dataset `slackline collect` writes at its defaults (1000
episodes, goal pool 200, seed 0), and the encoder and autoencoder that
`slackline train` and `slackline train-ae` build from it. That is the
pipeline's own input size, so the encoder's probe pass and the retrieval
index weigh what they weigh in the pipeline.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from slackline import cli, encoder, explore, harness, planner
from slackline.config import TaskConfig, TrainConfig
from slackline.geometry import sequence_feasible
from slackline.seeding import derive_seed
from slackline.simulator import goal_reached

from stats import sha256_bytes, sha256_file, sha256_files

WORKERS = 2
CLUTTER_PARAM = "obstacle_radius"
CLUTTER_VALUES = (0.05, 0.06)


@dataclass(frozen=True)
class Scale:
    collect_episodes: int
    collect_pool: int
    fixture_episodes: int
    fixture_pool: int
    fixture_epochs: int
    train_epochs: int
    eval_episodes: int
    sweep_episodes: int
    collect_sets: int
    train_sets: int
    eval_sets: int
    sweep_sets: int
    setup_repeats: int
    collect_setup_repeats: int


# Rounds last 2-6 s each, so a run holds several, and a pass over a
# workload's input sets (the *_sets fields) fits in one run. The full
# fixture is what the CLI builds at its defaults. A collect round keeps the
# CLI's pool-to-episode ratio, 200:1000; its cost per kept episode varies
# most between inputs, so it has the most sets. A train round is one epoch
# over the fixture dataset. An eval round of 48 paired episodes is six of
# the pool's 8-episode chunks, so both workers stay busy to near its end.
SCALES = {
    "full": Scale(
        collect_episodes=10, collect_pool=2,
        fixture_episodes=1000, fixture_pool=200, fixture_epochs=TrainConfig().epochs,
        train_epochs=1, eval_episodes=48, sweep_episodes=100,
        collect_sets=10, train_sets=2, eval_sets=3, sweep_sets=6,
        setup_repeats=11, collect_setup_repeats=15,
    ),
    "smoke": Scale(
        collect_episodes=3, collect_pool=2,
        fixture_episodes=6, fixture_pool=2, fixture_epochs=2,
        train_epochs=1, eval_episodes=2, sweep_episodes=3,
        collect_sets=2, train_sets=2, eval_sets=2, sweep_sets=2,
        setup_repeats=2, collect_setup_repeats=2,
    ),
}
FIXTURE_SEED = 0


@dataclass
class Fixtures:
    dataset: str
    encoder: str | None = None
    autoencoder: str | None = None


@dataclass
class Round:
    seconds: float
    work: int
    attempted: int
    digests: dict[str, str]
    output: object
    extra: dict = field(default_factory=dict)


def mlp_train_flops(sizes: tuple[int, ...]) -> int:
    """Floating-point operations per row of one forward and backward pass of
    a dense MLP: forward, weight gradients, and input deltas for every layer
    but the first."""
    macs = [a * b for a, b in zip(sizes[:-1], sizes[1:])]
    return 2 * (3 * sum(macs) - macs[0])


def scale_id(scale: Scale) -> str:
    return sha256_bytes(repr(scale).encode())[:12]


def round_seed(seed: int, index: int) -> int:
    """Seed of the index-th input set of a run."""
    return derive_seed(seed, "round", index)


def state_key(src_digest: str, scale: Scale) -> str:
    """Names the digests the benchmark keeps between runs: the program's
    source and the input sizes."""
    return sha256_bytes((src_digest + repr(scale)).encode())[:16]


def fixture_key(src_digest: str, scale: Scale) -> str:
    """Names the fixture files: the program's source and the fixture's own
    sizes and seed, so that other input sizes reuse them."""
    sizes = (scale.fixture_episodes, scale.fixture_pool, scale.fixture_epochs, FIXTURE_SEED)
    return sha256_bytes((src_digest + repr(sizes)).encode())[:16]


def ae_digest(params: planner.AeParams) -> str:
    """sha256 over the autoencoder's sizes, latent layer and weights in the
    file container's byte order."""
    blob = bytearray()
    for s in (*params.sizes, params.latent_layer):
        blob += int(s).to_bytes(4, "little")
    for w, b in zip(params.weights, params.biases):
        blob += np.ascontiguousarray(w, dtype="<f8").tobytes()
        blob += np.ascontiguousarray(b, dtype="<f8").tobytes()
    return sha256_bytes(bytes(blob))


def sweep_point_config(config: TaskConfig, param: str, value: float) -> TaskConfig:
    """The task config harness.sweep evaluates at one point: a grown obstacle
    keeps the gripper margin, so the center clearance tracks the radius."""
    if param == "obstacle_radius":
        margin = config.obstacle_clearance - config.obstacle_radius
        return replace(config, obstacle_radius=float(value),
                       obstacle_clearance=float(value) + margin)
    return replace(config, **{param: float(value)})


def audit_episode(result, config: TaskConfig) -> str | None:
    """Why a logged episode fails the post-hoc checks, or None: every drag
    passes sequence_feasible under the config that produced it, dual picks
    are separated, and success matches the goal predicate."""
    for t, action in enumerate(result.actions):
        obstacles = result.states[t].obstacles(config)
        for pp in action.sequences():
            if not sequence_feasible(pp.segment(), config.arm(pp.arm_id), obstacles):
                return f"step {t}: arm {pp.arm_id} drag {pp.pick}->{pp.place} infeasible"
        if action.follower is not None:
            sep = math.hypot(action.leader.pick[0] - action.follower.pick[0],
                             action.leader.pick[1] - action.follower.pick[1])
            if sep <= config.min_pick_separation:
                return f"step {t}: pick separation {sep:.6f}"
    if result.success != goal_reached(result.states[-1], config):
        return "success flag disagrees with the goal predicate"
    return None


def episode_ratios(results) -> dict[str, tuple[float, float]]:
    """Policy and controller ratios over logged episodes, each with its
    base."""
    episodes = len(results)
    actions = sum(len(r.actions) for r in results)
    follower = sum(role["follower"] for r in results for role in r.roles)
    fallback = sum(role["fallback"] for r in results for role in r.roles)
    no_action = sum(r.failure == "no-action" for r in results)
    return {
        "controller.follower_ratio": (follower / actions if actions else 0.0, actions),
        "controller.fallback_ratio": (fallback / actions if actions else 0.0, actions),
        "policy.steps_per_episode": (actions / episodes if episodes else 0.0, episodes),
        "policy.no_action_ratio": (no_action / episodes if episodes else 0.0, episodes),
    }


class Collect:
    name = "collect"
    workers = 1
    unit = "kept episodes"

    def __init__(self, seed: int, scale: Scale, src: str, fixtures: Fixtures | None):
        self.seed = seed
        self.scale = scale
        self.src = src
        self.setup_repeats = scale.collect_setup_repeats
        self.distinct_rounds = scale.collect_sets
        self.config = TaskConfig()

    def setup(self):
        """What `slackline collect` pays before it works: a fresh
        interpreter importing the CLI and building the task config."""
        env = dict(os.environ, PYTHONPATH=self.src)
        subprocess.run(
            [sys.executable, "-c",
             "import slackline.cli; from slackline.config import TaskConfig; "
             "TaskConfig()"],
            env=env, check=True,
        )
        return {}

    def warmup(self, ctx) -> None:
        explore.collect(self.config, episodes=1, seed=derive_seed(self.seed, "warmup"),
                        pool_size=1)

    def run_round(self, ctx, out_dir: str, workers: int, index: int) -> Round:
        path = os.path.join(out_dir, "dataset.jsonl")
        t0 = perf_counter()
        dataset, report = explore.collect(
            self.config, episodes=self.scale.collect_episodes,
            seed=round_seed(self.seed, index), pool_size=self.scale.collect_pool,
        )
        explore.save_dataset(dataset, path)
        seconds = perf_counter() - t0
        return Round(seconds, len(dataset.episodes), report.rollouts,
                     {"dataset_sha256": sha256_file(path)}, (dataset, report, path))

    def check(self, ctx, rnd: Round) -> list[str]:
        """Every kept episode replays bit-exactly, ends in the goal space and
        survives the save/load round trip."""
        dataset, _, path = rnd.output
        loaded = explore.load_dataset(path)
        problems = []
        if len(loaded.episodes) != len(dataset.episodes):
            return [f"saved dataset holds {len(loaded.episodes)} of "
                    f"{len(dataset.episodes)} episodes"] * len(dataset.episodes)
        for j, (ep, back) in enumerate(zip(dataset.episodes, loaded.episodes)):
            if explore.replay_episode(ep, self.config) != list(ep.states):
                problems.append(f"episode {j}: replay differs")
            elif not goal_reached(ep.states[-1], self.config):
                problems.append(f"episode {j}: last state outside the goal space")
            elif back.states != ep.states or back.actions != ep.actions:
                problems.append(f"episode {j}: differs after save and load")
        return problems

    def success_pct(self, rnd: Round) -> float:
        _, report, _ = rnd.output
        return 100.0 * report.success_ratio

    def layer_values(self, ctx, rnd: Round) -> dict:
        dataset, report, path = rnd.output
        kept_drags = sum(len(list(a.sequences()))
                         for ep in dataset.episodes for a in ep.actions)
        return {
            "explore.environments": report.environments,
            "explore.rollouts": report.rollouts,
            "explore.rollout_success_ratio": (report.success_ratio, report.rollouts),
            "explore.dataset_bytes": os.path.getsize(path),
            "explore.kept_drags": kept_drags,
        }


class Train:
    name = "train"
    workers = 1
    unit = "state-epochs"

    def __init__(self, seed: int, scale: Scale, src: str, fixtures: Fixtures):
        self.seed = seed
        self.scale = scale
        self.fixtures = fixtures
        self.setup_repeats = scale.setup_repeats
        self.distinct_rounds = scale.train_sets
        self.train_config = TrainConfig(epochs=scale.train_epochs)

    def setup(self):
        return {"dataset": explore.load_dataset(self.fixtures.dataset)}

    def warmup(self, ctx) -> None:
        # the first training of a process runs slower than the ones after it
        dataset = ctx["dataset"]
        part = replace(dataset, episodes=dataset.episodes[: max(2, len(dataset.episodes) // 4)])
        one = replace(self.train_config, epochs=1, seed=derive_seed(self.seed, "warmup"))
        encoder.train(part, one)
        planner.train_autoencoder(part, one)

    def run_round(self, ctx, out_dir: str, workers: int, index: int) -> Round:
        dataset = ctx["dataset"]
        cfg = replace(self.train_config, seed=round_seed(self.seed, index))
        t0 = perf_counter()
        enc = encoder.train(dataset, cfg)
        ae = planner.train_autoencoder(dataset, cfg)
        t2 = perf_counter()
        states = sum(len(ep.states) for ep in dataset.episodes)
        batches = cfg.epochs * math.ceil(states / cfg.batch_anchors)
        return Round(
            t2 - t0, states * cfg.epochs, 2 * batches,
            {"encoder_digest": encoder.params_digest(enc.params),
             "autoencoder_digest": ae_digest(ae.params)},
            (enc, ae),
            {"states": states, "batches": batches},
        )

    def check(self, ctx, rnd: Round) -> list[str]:
        enc, ae = rnd.output
        problems = []
        for label, report in (("encoder", enc), ("autoencoder", ae)):
            if not all(math.isfinite(x) for x in report.epoch_losses):
                problems.append(f"{label}: non-finite loss")
            if not all(np.isfinite(w).all() for w in report.params.weights):
                problems.append(f"{label}: non-finite weights")
        return problems

    def success_pct(self, rnd: Round) -> float:
        """100 exp(-probe loss): the geometric-mean probability the trained
        encoder gives the positive against its negatives on the fixed probe
        set."""
        enc, _ = rnd.output
        return 100.0 * math.exp(-enc.epoch_losses[-1])

    def layer_values(self, ctx, rnd: Round) -> dict:
        enc, ae = rnd.output
        cfg = self.train_config
        states = rnd.extra["states"]
        span = 2 + cfg.negatives
        enc_rows = cfg.epochs * (states + min(states, 2048)) * span  # + probe pass
        ae_rows = cfg.epochs * states
        return {
            "explore.dataset_bytes": os.path.getsize(self.fixtures.dataset),
            "encoder.train.batches": rnd.extra["batches"],
            "encoder.train.rows": cfg.epochs * states * span,
            "encoder.train.gflop": enc_rows * mlp_train_flops(enc.params.sizes) / 1e9,
            "encoder.train.probe_loss": enc.epoch_losses[-1],
            "encoder.train.state_epochs": cfg.epochs * states,
            "planner.train_autoencoder.gflop":
                ae_rows * mlp_train_flops(ae.params.sizes) / 1e9,
            "planner.train_autoencoder.loss": ae.epoch_losses[-1],
            "planner.train_autoencoder.state_epochs": cfg.epochs * states,
        }


def write_results(out_dir: str, labels, per_label) -> list[str]:
    """One results_<label>.jsonl per label, as `slackline eval` writes them."""
    paths = []
    for label, results in zip(labels, per_label):
        path = os.path.join(out_dir, f"results_{label}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for r in results:
                fh.write(json.dumps(r.to_obj(), separators=(",", ":")) + "\n")
        paths.append(path)
    return paths


class Eval:
    name = "eval"
    workers = WORKERS
    unit = "cell-episodes"
    cells = list(harness.FULL_MATRIX)

    def __init__(self, seed: int, scale: Scale, src: str, fixtures: Fixtures):
        self.seed = seed
        self.scale = scale
        self.fixtures = fixtures
        self.setup_repeats = scale.setup_repeats
        self.distinct_rounds = scale.eval_sets
        self.config = TaskConfig()

    def setup(self):
        """Load the dataset, encoder and autoencoder files, then build the
        planner of every cell, the embedding index included."""
        dataset = explore.load_dataset(self.fixtures.dataset)
        artifacts = harness.EvalArtifacts(
            dataset, encoder.load_params(self.fixtures.encoder),
            cli.load_ae(self.fixtures.autoencoder),
        )
        t0 = perf_counter()
        for planner_name, _ in self.cells:
            harness.make_planner(planner_name, artifacts, self.seed)
        return {"artifacts": artifacts, "build_s": perf_counter() - t0}

    def warmup(self, ctx) -> None:
        harness.evaluate(self.cells, 2, self.config, derive_seed(self.seed, "warmup"),
                         ctx["artifacts"], WORKERS)

    def run_round(self, ctx, out_dir: str, workers: int, index: int) -> Round:
        n = self.scale.eval_episodes
        seed = round_seed(self.seed, index)
        t0 = perf_counter()
        table, per_cell = harness.evaluate(
            self.cells, n, self.config, seed, ctx["artifacts"], workers
        )
        t1 = perf_counter()
        paths = self._write_reports(out_dir, table, per_cell, ctx, workers, seed, t1 - t0)
        t2 = perf_counter()
        work = len(self.cells) * n
        return Round(t2 - t0, work, work,
                     {"metrics_csv_sha256": sha256_file(paths[0]),
                      "results_sha256": sha256_files(paths[1:])},
                     (table, [(self.config, r) for r in per_cell]),
                     {"report_s": t2 - t1})

    def _write_reports(self, out_dir, table, per_cell, ctx, workers, seed, seconds):
        """The files `slackline eval` writes; returns metrics.csv then the
        results files."""
        metrics = os.path.join(out_dir, "metrics.csv")
        with open(metrics, "w", encoding="utf-8") as fh:
            fh.write(table.csv())
        with open(os.path.join(out_dir, "metrics_full.csv"), "w",
                  encoding="utf-8") as fh:
            fh.write(table.csv_full())
        paths = [metrics] + write_results(out_dir, [f"{p}+{c}" for p, c in self.cells],
                                          per_cell)
        harness.write_run_manifest(
            os.path.join(out_dir, "manifest.json"), self.config, seed,
            table.env_seeds, cells=self.cells, train=TrainConfig(),
            encoder=ctx["artifacts"].encoder, dataset_path=self.fixtures.dataset,
            extra={"episodes": self.scale.eval_episodes, "workers": workers,
                   "elapsed_seconds": round(seconds, 3)},
        )
        return paths

    def check(self, ctx, rnd: Round) -> list[str]:
        _, batches = rnd.output
        problems = []
        for config, results in batches:
            for r in results:
                why = audit_episode(r, config)
                if why is not None:
                    problems.append(f"episode seed {r.seed}: {why}")
        return problems

    def success_pct(self, rnd: Round) -> float:
        table, _ = rnd.output
        return statistics.fmean(row.success_rate for row in table.rows)

    def layer_values(self, ctx, rnd: Round) -> dict:
        _, batches = rnd.output
        values = episode_ratios([r for _, results in batches for r in results])
        values["explore.dataset_bytes"] = os.path.getsize(self.fixtures.dataset)
        values["planner.build_s"] = ctx["build_s"]
        values["planner.index_rows"] = len(ctx["artifacts"].index)
        values["harness.report_s"] = rnd.extra["report_s"]
        return values


class SweepClutter(Eval):
    name = "sweep-clutter"
    unit = "point-episodes"
    cells = [("contrastive", "leader-follower")]

    def __init__(self, seed: int, scale: Scale, src: str, fixtures: Fixtures):
        super().__init__(seed, scale, src, fixtures)
        self.distinct_rounds = scale.sweep_sets

    def warmup(self, ctx) -> None:
        harness.sweep(CLUTTER_PARAM, list(CLUTTER_VALUES), 2, self.config,
                      derive_seed(self.seed, "warmup"), ctx["artifacts"], WORKERS)

    def run_round(self, ctx, out_dir: str, workers: int, index: int) -> Round:
        n = self.scale.sweep_episodes
        seed = round_seed(self.seed, index)
        t0 = perf_counter()
        result, per_value = harness.sweep(
            CLUTTER_PARAM, list(CLUTTER_VALUES), n, self.config, seed,
            ctx["artifacts"], workers,
        )
        t1 = perf_counter()
        csv_path = os.path.join(out_dir, f"sweep_{CLUTTER_PARAM}.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(result.csv())
        with open(os.path.join(out_dir, f"sweep_{CLUTTER_PARAM}.svg"), "w",
                  encoding="utf-8") as fh:
            fh.write(harness.render_curve_svg(result))
        harness.write_run_manifest(
            os.path.join(out_dir, "manifest.json"), self.config, seed,
            result.env_seeds, train=TrainConfig(),
            encoder=ctx["artifacts"].encoder, dataset_path=self.fixtures.dataset,
            extra={"sweep_param": CLUTTER_PARAM, "sweep_values": list(CLUTTER_VALUES),
                   "episodes": n, "workers": workers,
                   "elapsed_seconds": round(t1 - t0, 3)},
        )
        t2 = perf_counter()
        # `slackline sweep` writes no per-episode results; they are written
        # after the timed part, for the digest only
        result_paths = write_results(
            out_dir, [f"{CLUTTER_PARAM}={v:g}" for v in CLUTTER_VALUES], per_value)
        batches = [
            (sweep_point_config(self.config, CLUTTER_PARAM, p.value), results)
            for p, results in zip(result.points, per_value)
        ]
        work = len(CLUTTER_VALUES) * n
        return Round(t2 - t0, work, work,
                     {"sweep_csv_sha256": sha256_file(csv_path),
                      "results_sha256": sha256_files(result_paths)},
                     (result, batches),
                     {"report_s": t2 - t1})

    def success_pct(self, rnd: Round) -> float:
        result, _ = rnd.output
        return statistics.fmean(result.success_rates())


WORKLOADS = {w.name: w for w in (Collect, Train, Eval, SweepClutter)}
