"""Command-line surface tying the pipeline together.

`run`, `eval` and `sweep` share one input loader, and `eval` and `sweep` one
report writer; `run` is one cell and one episode of `harness.evaluate`.

Exit codes, mapped in `main`: 0 success, 1 usage error, 2 data or model error
(the message names the offending file), 3 internal invariant violation. A
refused command creates no output.
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

from . import __version__, explore
from .config import TaskConfig, TrainConfig, config_digest, load_config_file
from .encoder import (
    InsufficientDataError,
    MlpParams,
    load_params,
    model_layout,
    params_digest,
    save_params,
    train,
)
from .explore import MalformedDatasetError, collect, load_dataset, save_dataset
from .harness import (
    FULL_MATRIX,
    EvalArtifacts,
    UnknownCellError,
    evaluate,
    make_planner,
    render_curve_svg,
    render_episode,
    sweep,
    sweep_config,
    write_run_manifest,
)
from .planner import train_autoencoder
from .policy import EpisodeResult
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
    return load_config_file(path)


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


def _make_parent(path: str) -> str:
    """`path`, once the directory it names a file in exists."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _check_out(args) -> None:
    """Refuse, before any work, an --out the command could not write: one
    that exists as the other kind (a directory where the command writes a
    file, or a file where it writes a directory: eval, sweep and render), or
    one below an existing file."""
    if args.out is None:
        return
    writes_dir = args.command in ("eval", "sweep", "render")
    if os.path.exists(args.out) and os.path.isdir(args.out) != writes_dir:
        found, wanted = ("a file", "a directory") if writes_dir else (
            "a directory", "a file")
        raise UsageError(f"--out {args.out} is {found}; {args.command} writes "
                         f"{wanted} there")
    parent = os.path.dirname(args.out)
    while parent and not os.path.exists(parent):
        parent = os.path.dirname(parent)
    if parent and not os.path.isdir(parent):
        raise UsageError(f"--out {args.out} lies below the file {parent}")


def _json_line(result: EpisodeResult) -> str:
    return json.dumps(result.to_obj(), separators=(",", ":")) + "\n"


def _cmd_collect(args) -> int:
    task, _ = _load_configs(args.config)
    t0 = time.perf_counter()
    dataset, report = collect(
        task,
        episodes=args.episodes,
        seed=args.seed,
        pool_size=args.pool_size,
        progress=_print_progress,
    )
    save_dataset(dataset, _make_parent(args.out))
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
    --out; returns (report, seconds). A dataset too small to train on is
    refused by its path."""
    dataset = load_dataset(args.dataset)
    _, train_cfg = _load_configs(args.config)
    if args.seed is not None:
        train_cfg = replace(train_cfg, seed=args.seed)
    t0 = time.perf_counter()
    try:
        report = fit(dataset, train_cfg,
                     progress=partial(_print_epoch, args.command))
    except InsufficientDataError as err:
        raise InsufficientDataError(f"{args.dataset}: {err}") from None
    save_params(report.params, _make_parent(args.out), train_cfg,
                report.epoch_losses)
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
    workspace, input_dim = model_layout(task)
    if model.sizes[0] != input_dim:
        raise TaskMismatchError(
            f"{path}: input size sizes[0] = {model.sizes[0]}, the task in "
            f"force gives {input_dim}"
        )
    if tuple(model.workspace) != workspace:
        raise TaskMismatchError(
            f"{path}.json: workspace {list(model.workspace)}, the task in force "
            f"has {list(workspace)}"
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
    if args.encoder:
        encoder = load_params(args.encoder)
        _check_model(args.encoder, encoder, task)
    if args.autoencoder:
        ae = load_ae(args.autoencoder)
        _check_model(args.autoencoder, ae, task)
    return EvalArtifacts(dataset, encoder, ae)


def _load_inputs(args) -> tuple[TaskConfig, TrainConfig, EvalArtifacts, str]:
    """The inputs of run, eval and sweep, in this order: the configs, the
    dataset (and its sha256), then the models checked against the task."""
    if getattr(args, "workers", 1) < 1:  # eval and sweep
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    task, train_cfg = _load_configs(args.config)
    dataset = load_dataset(args.dataset)
    dataset_sha256 = _file_sha256(args.dataset)
    return task, train_cfg, _build_artifacts(args, dataset, task), dataset_sha256


def _write_report(args, inputs, env_seeds: list[int], files: dict[str, str],
                  csv: str, seconds: float, cells=None, **own) -> None:
    """Write the report of an eval or sweep to --out: `files` (name ->
    text), then manifest.json, where the command's `own` fields follow
    `version`; then print `csv` on stdout."""
    task, train_cfg, artifacts, dataset_sha256 = inputs
    # only now, so that a refused run leaves no output directory
    os.makedirs(args.out, exist_ok=True)
    for name, text in files.items():
        with open(os.path.join(args.out, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    write_run_manifest(
        os.path.join(args.out, "manifest.json"),
        task,
        args.seed,
        env_seeds,
        cells=cells,
        train=train_cfg,
        encoder=artifacts.encoder,
        autoencoder=artifacts.autoencoder,
        dataset_path=args.dataset,
        extra={"dataset_sha256": dataset_sha256,
               "dataset_config_digest": config_digest(artifacts.dataset.config),
               "version": __version__, **own, "episodes": args.episodes,
               "workers": args.workers, "elapsed_seconds": round(seconds, 3)},
    )
    print(csv, end="")
    print(f"{args.command} finished in {seconds:.1f}s -> {args.out}",
          file=sys.stderr)


def _cmd_run(args) -> int:
    task, _, artifacts, _ = _load_inputs(args)
    # evaluate builds controllers before planners; building the planner
    # first refuses a missing model (exit 2) before an unknown controller
    # (exit 1). Retrieval planners are cached in artifacts, so none is built
    # twice.
    make_planner(args.planner, artifacts, args.seed)
    _, per_cell = evaluate([(args.planner, args.controller)], 1, task,
                           args.seed, artifacts)
    result = per_cell[0][0]
    if args.out:
        with open(_make_parent(args.out), "w", encoding="utf-8") as fh:
            fh.write(_json_line(result))
    else:
        sys.stdout.write(_json_line(result))
    print(
        f"episode: success={result.success} steps={result.steps}",
        file=sys.stderr,
    )
    return 0


def _envs_in_dataset(task: TaskConfig, env_seeds: list[int],
                     dataset: explore.Dataset) -> int:
    """How many of the start states of `env_seeds` equal the first state of
    a dataset episode."""
    starts = {(ep.states[0].q.tobytes(), ep.states[0].o.tobytes())
              for ep in dataset.episodes}
    envs = (generate_env(task, s).quantized() for s in env_seeds)
    return sum((env.q.tobytes(), env.o.tobytes()) in starts for env in envs)


def _cmd_eval(args) -> int:
    inputs = _load_inputs(args)
    task, _, artifacts, _ = inputs
    cells = _parse_matrix(args.matrix)
    t0 = time.perf_counter()
    table, per_cell = evaluate(
        cells, args.episodes, task, args.seed, artifacts, args.workers
    )
    dt = time.perf_counter() - t0
    files = {"metrics.csv": table.csv(), "metrics_full.csv": table.csv_full()}
    for (p, c), results in zip(cells, per_cell):
        files[f"results_{p}+{c}.jsonl"] = "".join(map(_json_line, results))
    _write_report(args, inputs, table.env_seeds, files, table.csv(), dt,
                  cells=cells, eval_envs_in_dataset=_envs_in_dataset(
                      task, table.env_seeds, artifacts.dataset))
    return 0


def _cmd_sweep(args) -> int:
    inputs = _load_inputs(args)
    task, _, artifacts, _ = inputs
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError as err:
        raise UsageError(f"bad --values: {err}") from err
    if not all(map(math.isfinite, values)):
        raise UsageError(f"bad --values: {args.values!r} holds a non-finite number")
    if not values:
        raise UsageError("empty --values")
    if values != sorted(values):
        raise UsageError(f"bad --values: {args.values!r} is not in ascending order")
    t0 = time.perf_counter()
    result, _ = sweep(
        args.param, values, args.episodes, task, args.seed, artifacts,
        args.workers,
    )
    dt = time.perf_counter() - t0
    name = f"sweep_{args.param}"
    files = {f"{name}.csv": result.csv(), f"{name}.svg": render_curve_svg(result)}
    in_dataset = [_envs_in_dataset(sweep_config(task, args.param, v),
                                   result.env_seeds, artifacts.dataset)
                  for v in values]
    _write_report(args, inputs, result.env_seeds, files, result.csv(), dt,
                  sweep_param=args.param, sweep_values=values,
                  eval_envs_in_dataset=in_dataset)
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

    # the flags subcommands share, declared once
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config")
    fit = argparse.ArgumentParser(add_help=False, parents=[config])
    fit.add_argument("--dataset", required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--seed", type=int, default=None)
    inputs = argparse.ArgumentParser(add_help=False, parents=[config])
    inputs.add_argument("--dataset", required=True)
    inputs.add_argument("--encoder")
    inputs.add_argument("--autoencoder")
    inputs.add_argument("--seed", type=int, default=0)
    batch = argparse.ArgumentParser(add_help=False, parents=[inputs])
    batch.add_argument("--episodes", type=int, default=500)
    batch.add_argument("--out", required=True)
    batch.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("collect", parents=[config],
                       help="collect a dataset of successful episodes")
    p.add_argument("--out", required=True)
    p.add_argument("--episodes", type=int, default=explore.DEFAULT_EPISODES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pool-size", type=int, default=explore.DEFAULT_GOAL_POOL)
    p.set_defaults(func=_cmd_collect)

    sub.add_parser("train", parents=[fit], help="train the contrastive encoder",
                   ).set_defaults(func=_cmd_train)
    sub.add_parser("train-ae", parents=[fit],
                   help="train the autoencoder ablation model",
                   ).set_defaults(func=_cmd_train_ae)

    p = sub.add_parser("run", parents=[inputs], help="run one policy episode")
    p.add_argument("--planner", default="contrastive")
    p.add_argument("--controller", default="leader-follower")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("eval", parents=[batch],
                       help="evaluate a planner/controller matrix")
    p.add_argument("--matrix", default="full")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[batch], help="sweep a task parameter")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("render", parents=[config],
                       help="render an episode result to SVG frames")
    p.add_argument("--result", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_out(args)
        return args.func(args)
    except (UsageError, UnknownCellError) as err:
        print(f"slackline: error: {err}", file=sys.stderr)
        return USAGE_EXIT
    # before ValueError: InfeasibleActionError is one
    except (InfeasibleActionError, AssertionError) as err:
        print(f"slackline: internal invariant violation: {err}", file=sys.stderr)
        return INTERNAL_EXIT
    except (FileNotFoundError, GenerationError, ValueError) as err:
        print(f"slackline: data error: {err}", file=sys.stderr)
        return DATA_EXIT


if __name__ == "__main__":
    raise SystemExit(main())
