"""Command-line surface tying the pipeline together.

Exit codes: 0 success, 1 usage error, 2 data or model error (the message
names the offending file), 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import fields, replace
from functools import partial

from . import __version__
from .config import TaskConfig, TrainConfig, config_digest, load_config_file
from .encoder import (
    MlpParams,
    ParamsFormatError,
    load_params,
    params_digest,
    save_params,
    train,
)
from .explore import (
    DatasetVersionError,
    MalformedDatasetError,
    build_goal_pool,
    collect,
    load_dataset,
    save_dataset,
)
from .harness import (
    FULL_MATRIX,
    EvalArtifacts,
    MissingModelError,
    UnknownCellError,
    evaluate,
    make_controller,
    make_planner,
    render_curve_svg,
    render_episode,
    sweep,
    write_run_manifest,
)
from .planner import train_autoencoder
from .policy import EpisodeResult, run_episode
from .seeding import derive_seed
from .simulator import GenerationError, InfeasibleActionError, generate_env

USAGE_EXIT = 1
DATA_EXIT = 2
INTERNAL_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


class UsageError(ValueError):
    pass


class TaskMismatchError(ValueError):
    """A dataset or model file was made for a different task than the one
    in force."""


def _load_configs(path: str | None) -> tuple[TaskConfig, TrainConfig]:
    if path is None:
        return TaskConfig(), TrainConfig()
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return load_config_file(path)


def _load_dataset_checked(path: str):
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    return load_dataset(path)


def load_ae(path: str) -> MlpParams:
    return load_params(path, autoencoder=True)


def _parse_matrix(spec: str) -> list[tuple[str, str]]:
    if spec == "full":
        return list(FULL_MATRIX)
    cells = []
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise UsageError(
                f"bad cell {chunk!r}; expected planner:controller"
            )
        cells.append((parts[0], parts[1]))
    return cells


def _print_progress(kept: int, total: int) -> None:
    """One stderr line at each tenth of the episodes to collect."""
    if kept * 10 // total > (kept - 1) * 10 // total:
        print(f"collect: {kept}/{total} episodes", file=sys.stderr)


def _print_epoch(command: str, epoch: int, epochs: int, loss: float) -> None:
    """One stderr line per training epoch."""
    print(f"{command}: epoch {epoch}/{epochs} loss {loss:.6f}", file=sys.stderr)


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cmd_collect(args) -> int:
    task, _ = _load_configs(args.config)
    t0 = time.perf_counter()
    dataset, report = collect(
        task,
        episodes=args.episodes,
        goals_per_env=args.goals_per_env,
        trials_per_goal=args.trials_per_goal,
        seed=args.seed,
        pool_size=args.pool_size,
        progress=_print_progress,
    )
    save_dataset(dataset, args.out)
    dt = time.perf_counter() - t0
    print(
        f"collected {len(dataset.episodes)} episodes from "
        f"{report.environments} environments "
        f"({report.successes}/{report.rollouts} rollouts succeeded) "
        f"in {dt:.1f}s -> {args.out}"
    )
    return 0


def _fit(args, fit):
    """Train a model with `fit`, one stderr line per epoch, and save it to
    --out; returns (report, seconds)."""
    dataset = _load_dataset_checked(args.dataset)
    _, train_cfg = _load_configs(args.config)
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    t0 = time.perf_counter()
    report = fit(dataset, train_cfg, progress=partial(_print_epoch, args.command))
    save_params(report.params, args.out, train_cfg, report.epoch_losses)
    return report, time.perf_counter() - t0


def _cmd_train(args) -> int:
    report, dt = _fit(args, train)
    print(
        f"trained encoder in {dt:.1f}s; per-epoch loss "
        f"{report.epoch_losses[0]:.4f} -> {report.epoch_losses[-1]:.4f}; "
        f"digest {params_digest(report.params)[:12]} -> {args.out}"
    )
    return 0


def _cmd_train_ae(args) -> int:
    report, dt = _fit(args, train_autoencoder)
    print(
        f"trained autoencoder in {dt:.1f}s; reconstruction loss "
        f"{report.epoch_losses[0]:.6f} -> {report.epoch_losses[-1]:.6f} "
        f"-> {args.out}"
    )
    return 0


# The header fields that fix the state layout; the fields sweeps vary
# (reach_max, obstacle_radius) may differ from the task in force.
LAYOUT_FIELDS = ("keypoint_count", "obstacle_count", "workspace_width",
                 "workspace_height")


def _check_model(path: str, model: MlpParams, task: TaskConfig):
    input_dim = (task.keypoint_count + task.obstacle_count) * 2
    if model.sizes[0] != input_dim:
        raise TaskMismatchError(
            f"{path}: input size sizes[0] = {model.sizes[0]}, the task in "
            f"force gives {input_dim}"
        )
    if tuple(model.workspace) != (task.workspace_width, task.workspace_height):
        raise TaskMismatchError(
            f"{path}.json: workspace {list(model.workspace)}, the task in force "
            f"has {[task.workspace_width, task.workspace_height]}"
        )


def _build_artifacts(args, dataset, task: TaskConfig) -> EvalArtifacts:
    """The dataset and models of a run; TaskMismatchError naming the file
    and the field if one of them does not fit `task`. Other task fields may
    differ from the dataset header; one stderr line names them."""
    for field in LAYOUT_FIELDS:
        found, want = getattr(dataset.config, field), getattr(task, field)
        if found != want:
            raise TaskMismatchError(
                f"{args.dataset}: header {field} = {found}, the task in force "
                f"has {want} (pass the config it was collected with)"
            )
    differ = [
        f"{f.name} = {getattr(task, f.name)} (header {getattr(dataset.config, f.name)})"
        for f in fields(TaskConfig)
        if getattr(task, f.name) != getattr(dataset.config, f.name)
    ]
    if differ:
        print(f"slackline: note: {args.dataset}: the task in force differs from "
              f"the header: {', '.join(differ)}", file=sys.stderr)
    encoder = None
    ae = None
    if getattr(args, "encoder", None):
        encoder = load_params(args.encoder)
        _check_model(args.encoder, encoder, task)
    if getattr(args, "autoencoder", None):
        ae = load_ae(args.autoencoder)
        _check_model(args.autoencoder, ae, task)
    return EvalArtifacts(dataset, encoder, ae)


def _cmd_run(args) -> int:
    task, _ = _load_configs(args.config)
    dataset = _load_dataset_checked(args.dataset)
    artifacts = _build_artifacts(args, dataset, task)
    planner = make_planner(args.planner, artifacts, args.seed)
    controller = make_controller(args.controller, task)
    env = generate_env(task, derive_seed(args.seed, "env", 0))
    result = run_episode(
        env, planner, controller, task, derive_seed(args.seed, "episode", 0)
    )
    payload = json.dumps(result.to_obj(), separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    if args.render:
        paths = render_episode(result, task, args.render)
        print(f"rendered {len(paths)} frames -> {args.render}", file=sys.stderr)
    print(
        f"episode: success={result.success} steps={result.steps}",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args) -> int:
    task, train_cfg = _load_configs(args.config)
    dataset = _load_dataset_checked(args.dataset)
    dataset_sha256 = _file_sha256(args.dataset)
    artifacts = _build_artifacts(args, dataset, task)
    cells = _parse_matrix(args.matrix)
    t0 = time.perf_counter()
    table, per_cell = evaluate(
        cells, args.episodes, task, args.seed, artifacts, args.workers
    )
    dt = time.perf_counter() - t0
    # only now, so that a refused run leaves no output directory
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(table.csv())
    with open(
        os.path.join(args.out, "metrics_full.csv"), "w", encoding="utf-8"
    ) as fh:
        fh.write(table.csv_full())
    for (p, c), results in zip(cells, per_cell):
        path = os.path.join(args.out, f"results_{p}+{c}.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            for r in results:
                fh.write(json.dumps(r.to_obj(), separators=(",", ":")) + "\n")
    write_run_manifest(
        os.path.join(args.out, "manifest.json"),
        task,
        args.seed,
        table.env_seeds,
        cells=cells,
        train=train_cfg,
        encoder=artifacts.encoder,
        autoencoder=artifacts.autoencoder,
        dataset_path=args.dataset,
        extra={"dataset_sha256": dataset_sha256,
               "dataset_config_digest": config_digest(dataset.config),
               "version": __version__, "episodes": args.episodes,
               "workers": args.workers, "elapsed_seconds": round(dt, 3)},
    )
    print(table.csv(), end="")
    print(f"eval finished in {dt:.1f}s -> {args.out}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    task, train_cfg = _load_configs(args.config)
    dataset = _load_dataset_checked(args.dataset)
    dataset_sha256 = _file_sha256(args.dataset)
    artifacts = _build_artifacts(args, dataset, task)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as err:
        raise UsageError(f"bad --values: {err}") from err
    if not all(map(math.isfinite, values)):
        raise UsageError(f"bad --values: {args.values!r} holds a non-finite number")
    if not values:
        raise UsageError("empty --values")
    t0 = time.perf_counter()
    result, _ = sweep(
        args.param, values, args.episodes, task, args.seed, artifacts,
        args.workers,
    )
    dt = time.perf_counter() - t0
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, f"sweep_{args.param}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(result.csv())
    svg_path = os.path.join(args.out, f"sweep_{args.param}.svg")
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_curve_svg(result))
    write_run_manifest(
        os.path.join(args.out, "manifest.json"),
        task,
        args.seed,
        result.env_seeds,
        train=train_cfg,
        encoder=artifacts.encoder,
        autoencoder=artifacts.autoencoder,
        dataset_path=args.dataset,
        extra={
            "dataset_sha256": dataset_sha256,
            "dataset_config_digest": config_digest(dataset.config),
            "version": __version__,
            "sweep_param": args.param,
            "sweep_values": values,
            "episodes": args.episodes,
            "workers": args.workers,
            "elapsed_seconds": round(dt, 3),
        },
    )
    print(result.csv(), end="")
    print(f"sweep finished in {dt:.1f}s -> {args.out}", file=sys.stderr)
    return 0


def _cmd_render(args) -> int:
    task, _ = _load_configs(args.config)
    if not os.path.exists(args.result):
        raise FileNotFoundError(f"result file not found: {args.result}")
    with open(args.result, "r", encoding="utf-8") as fh:
        try:
            result = EpisodeResult.from_obj(json.load(fh))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as err:
            raise MalformedDatasetError(f"{args.result}: {err}") from err
    paths = render_episode(result, task, args.out)
    print(f"rendered {len(paths)} frames -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="slackline", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("collect", help="collect a dataset of successful episodes")
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--episodes", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool-size", type=int, default=200)
    p.add_argument("--goals-per-env", type=int, default=3)
    p.add_argument("--trials-per-goal", type=int, default=3)
    p.set_defaults(func=_cmd_collect)

    p = sub.add_parser("train", help="train the contrastive encoder")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("train-ae", help="train the autoencoder ablation model")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_train_ae)

    p = sub.add_parser("run", help="run one policy episode")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--encoder")
    p.add_argument("--autoencoder")
    p.add_argument("--planner", default="contrastive")
    p.add_argument("--controller", default="leader-follower")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--render")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", help="evaluate a planner/controller matrix")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--encoder")
    p.add_argument("--autoencoder")
    p.add_argument("--matrix", default="full")
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="sweep a task parameter")
    p.add_argument("--config")
    p.add_argument("--dataset", required=True)
    p.add_argument("--encoder")
    p.add_argument("--autoencoder")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--episodes", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", help="render an episode result to SVG frames")
    p.add_argument("--config")
    p.add_argument("--result", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"slackline: error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except UnknownCellError as err:
        print(f"slackline: error: {err}", file=sys.stderr)
        return USAGE_EXIT
    except (
        FileNotFoundError,
        MalformedDatasetError,
        DatasetVersionError,
        ParamsFormatError,
        TaskMismatchError,
        MissingModelError,
        GenerationError,
    ) as err:
        print(f"slackline: data error: {err}", file=sys.stderr)
        return DATA_EXIT
    except (InfeasibleActionError, AssertionError) as err:
        print(f"slackline: internal invariant violation: {err}", file=sys.stderr)
        return INTERNAL_EXIT
    except ValueError as err:
        print(f"slackline: data error: {err}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
