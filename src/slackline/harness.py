"""Batch evaluation: ablation matrix, constraint sweeps, metrics, reports.

Every cell of a run and every point of a sweep uses the identical list of
environment seeds (paired comparison), so differences between cells reflect
the planner/controller combination rather than environment luck. Failures
count at the full horizon in the primary mean/std; success-only aggregates
are emitted alongside.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
from dataclasses import asdict, dataclass, field, replace
from typing import Iterable, Sequence

from .config import TaskConfig, TrainConfig, config_digest
from .controller import LeaderFollower, OnlyLeader, RandomControl
from .encoder import MlpParams, params_digest
from .explore import Dataset
from .planner import (
    AutoencoderPlanner,
    ContrastivePlanner,
    EmbeddingIndex,
    FixedPlanner,
    RandomPlanner,
    TemplatePlanner,
    build_index,
)
from .policy import EpisodeResult, run_episode
from .seeding import derive_seed
from .simulator import EnvState, generate_env

PLANNER_NAMES = ("contrastive", "fixed", "random", "template", "autoencoder")
CONTROLLER_NAMES = ("leader-follower", "only-leader", "random-control")

FULL_MATRIX = (
    ("fixed", "leader-follower"),
    ("random", "leader-follower"),
    ("template", "leader-follower"),
    ("autoencoder", "leader-follower"),
    ("contrastive", "only-leader"),
    ("contrastive", "random-control"),
    ("contrastive", "leader-follower"),
)

CSV_HEADER = "cell,planner,controller,episodes,success_rate,mean_actions,std_actions"


class UnknownCellError(ValueError):
    pass


class MissingModelError(ValueError):
    pass


@dataclass
class EvalArtifacts:
    """Trained models and dataset shared by every cell of a run, and the
    retrieval planners built from them. Those keep no per-episode state and
    do not depend on the seed, so each is built once, by `make_planner`."""

    dataset: Dataset
    encoder: MlpParams | None = None
    autoencoder: MlpParams | None = None
    index: EmbeddingIndex | None = None
    retrieval: dict[str, object] = field(default_factory=dict)

    def require_index(self) -> EmbeddingIndex:
        if self.index is None:
            if self.encoder is None:
                raise MissingModelError(
                    "cell needs a trained encoder (run `slackline train`)"
                )
            self.index = build_index(self.dataset, self.encoder)
        return self.index


def make_planner(name: str, artifacts: EvalArtifacts, seed: int):
    if name == "fixed":
        return FixedPlanner(artifacts.dataset.achieved_goals(),
                            derive_seed(seed, "fixed-planner"))
    if name == "random":
        return RandomPlanner(artifacts.dataset.achieved_goals(),
                             derive_seed(seed, "random-planner"))
    if name not in artifacts.retrieval:
        artifacts.retrieval[name] = _retrieval_planner(name, artifacts)
    return artifacts.retrieval[name]


def _retrieval_planner(name: str, artifacts: EvalArtifacts):
    if name == "contrastive":
        return ContrastivePlanner(artifacts.require_index(), artifacts.encoder)
    if name == "template":
        return TemplatePlanner(artifacts.dataset)
    if name == "autoencoder":
        if artifacts.autoencoder is None:
            raise MissingModelError(
                "cell needs a trained autoencoder (run `slackline train-ae`)"
            )
        return AutoencoderPlanner(artifacts.autoencoder, artifacts.dataset)
    raise UnknownCellError(
        f"unknown planner {name!r}; valid: {', '.join(PLANNER_NAMES)}"
    )


def make_controller(name: str, config: TaskConfig):
    if name == "leader-follower":
        return LeaderFollower(config)
    if name == "only-leader":
        return OnlyLeader(config)
    if name == "random-control":
        return RandomControl(config)
    raise UnknownCellError(
        f"unknown controller {name!r}; valid: {', '.join(CONTROLLER_NAMES)}"
    )


@dataclass
class CellMetrics:
    planner: str
    controller: str
    episodes: int
    success_rate: float  # percent
    mean_actions: float  # failures counted at horizon_max
    std_actions: float
    mean_actions_success_only: float
    std_actions_success_only: float

    @property
    def cell(self) -> str:
        return f"{self.planner}+{self.controller}"


@dataclass
class MetricsTable:
    rows: list[CellMetrics]
    env_seeds: list[int]

    def row(self, planner: str, controller: str) -> CellMetrics:
        for r in self.rows:
            if r.planner == planner and r.controller == controller:
                return r
        raise KeyError(f"{planner}+{controller}")

    def csv(self) -> str:
        lines = [CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.cell},{r.planner},{r.controller},{r.episodes},"
                f"{r.success_rate:.4f},{r.mean_actions:.4f},{r.std_actions:.4f}"
            )
        return "\n".join(lines) + "\n"

    def csv_full(self) -> str:
        lines = [
            CSV_HEADER
            + ",mean_actions_success_only,std_actions_success_only"
        ]
        for r in self.rows:
            lines.append(
                f"{r.cell},{r.planner},{r.controller},{r.episodes},"
                f"{r.success_rate:.4f},{r.mean_actions:.4f},{r.std_actions:.4f},"
                f"{r.mean_actions_success_only:.4f},"
                f"{r.std_actions_success_only:.4f}"
            )
        return "\n".join(lines) + "\n"


def summarize(
    planner: str, controller: str, results: Sequence[EpisodeResult],
    horizon_max: int,
) -> CellMetrics:
    n = len(results)
    succ = [r for r in results if r.success]
    counted = [r.steps if r.success else horizon_max for r in results]
    mean = math.fsum(counted) / n
    var = math.fsum((c - mean) ** 2 for c in counted) / n
    if succ:
        mean_s = math.fsum(r.steps for r in succ) / len(succ)
        var_s = math.fsum((r.steps - mean_s) ** 2 for r in succ) / len(succ)
    else:
        mean_s = float("nan")
        var_s = float("nan")
    return CellMetrics(
        planner,
        controller,
        n,
        100.0 * len(succ) / n,
        mean,
        math.sqrt(var),
        mean_s,
        math.sqrt(var_s) if succ else float("nan"),
    )


# Episode execution, optionally across worker processes. Workers inherit the
# evaluation context by fork; every episode is fully determined by its seeds,
# so results are independent of the worker count. A pool task is one
# environment with every cell on it, so the workers stay busy to near the end.
# The cells of one task share one transition table (see `run_episode`): they
# start from one state under one config and often make the same first drags.
# The table lives for one task only.

_CTX: dict = {}


def _episode_task(seeds: tuple[int, int]) -> list[EpisodeResult]:
    env_seed, episode_seed = seeds
    config = _CTX["config"]
    env = generate_env(config, env_seed)
    transitions: dict = {}
    out = []
    for planner, controller in zip(_CTX["planners"], _CTX["controllers"]):
        out.append(run_episode(env, planner, controller, config, episode_seed,
                               transitions))
    return out


def evaluate(
    cells: list[tuple[str, str]],
    n_episodes: int,
    config: TaskConfig,
    seed: int,
    artifacts: EvalArtifacts,
    workers: int = 1,
) -> tuple[MetricsTable, list[list[EpisodeResult]]]:
    """Run every cell on the same env seed list; returns (the metrics
    table, per-cell episode results)."""
    if n_episodes < 1:
        raise ValueError("episodes must be >= 1")
    controllers = [make_controller(c, config) for _, c in cells]
    planners = [make_planner(p, artifacts, seed) for p, _ in cells]
    env_seeds = [derive_seed(seed, "env", i) for i in range(n_episodes)]
    episode_seeds = [derive_seed(seed, "episode", i) for i in range(n_episodes)]
    tasks = list(zip(env_seeds, episode_seeds))

    _CTX.update(config=config, planners=planners, controllers=controllers)
    if workers <= 1:
        rows = [_episode_task(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(processes=workers) as pool:
            rows = pool.map(_episode_task, tasks, chunksize=1)
    per_cell = [[row[c] for row in rows] for c in range(len(cells))]
    metrics = [
        summarize(p, c, results, config.horizon_max)
        for (p, c), results in zip(cells, per_cell)
    ]
    return MetricsTable(metrics, env_seeds), per_cell


SWEEP_PARAMS = ("reach_max", "obstacle_radius")


@dataclass
class SweepPoint:
    value: float
    metrics: CellMetrics


@dataclass
class SweepResult:
    param: str
    points: list[SweepPoint]
    env_seeds: list[int]

    def csv(self) -> str:
        lines = ["param,value,episodes,success_rate,mean_actions,std_actions"]
        for p in self.points:
            m = p.metrics
            lines.append(
                f"{self.param},{p.value:g},{m.episodes},"
                f"{m.success_rate:.4f},{m.mean_actions:.4f},{m.std_actions:.4f}"
            )
        return "\n".join(lines) + "\n"

    def success_rates(self) -> list[float]:
        return [p.metrics.success_rate for p in self.points]


def sweep_config(config: TaskConfig, param: str, value: float) -> TaskConfig:
    """The task config in force at one sweep point. Growing an obstacle keeps
    the gripper margin, so the center clearance tracks the radius; shrinking
    it likewise relaxes the clearance. Other parameters replace one field."""
    if param == "obstacle_radius":
        grip_margin = config.obstacle_clearance - config.obstacle_radius
        return replace(
            config,
            obstacle_radius=float(value),
            obstacle_clearance=float(value) + grip_margin,
        )
    return replace(config, **{param: float(value)})


def sweep(
    param: str,
    values: Sequence[float],
    n_episodes: int,
    config: TaskConfig,
    seed: int,
    artifacts: EvalArtifacts,
    workers: int = 1,
) -> tuple[SweepResult, list[list[EpisodeResult]]]:
    """Success rate of the contrastive leader-follower cell as a function
    of a task parameter, with the same seed list at every point; each point
    runs under sweep_config(config, param, value)."""
    if param not in SWEEP_PARAMS:
        raise UnknownCellError(
            f"unknown sweep parameter {param!r}; valid: {', '.join(SWEEP_PARAMS)}"
        )
    if list(values) != sorted(values):
        raise ValueError("sweep values must be sorted ascending")
    points = []
    all_results = []
    env_seeds: list[int] = []
    for v in values:
        table, per_cell = evaluate(
            [("contrastive", "leader-follower")], n_episodes,
            sweep_config(config, param, v), seed, artifacts, workers,
        )
        points.append(SweepPoint(float(v), table.rows[0]))
        all_results.append(per_cell[0])
        env_seeds = table.env_seeds
    return SweepResult(param, points, env_seeds), all_results


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks for ties."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two equal-length sequences of length >= 2")

    def ranks(vals: Sequence[float]) -> list[float]:
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        out = [0.0] * len(vals)
        i = 0
        while i < len(order):
            j = i
            while j + 1 < len(order) and vals[order[j + 1]] == vals[order[i]]:
                j += 1
            avg = (i + j) / 2.0 + 1.0
            for k in range(i, j + 1):
                out[order[k]] = avg
            i = j + 1
        return out

    rx = ranks(xs)
    ry = ranks(ys)
    mx = math.fsum(rx) / len(rx)
    my = math.fsum(ry) / len(ry)
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(rx, ry))
    vx = math.fsum((a - mx) ** 2 for a in rx)
    vy = math.fsum((b - my) ** 2 for b in ry)
    if vx == 0.0 or vy == 0.0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def write_run_manifest(
    path: str,
    config: TaskConfig,
    seed: int,
    env_seeds: list[int],
    cells: Iterable[tuple[str, str]] | None = None,
    train: TrainConfig | None = None,
    encoder: MlpParams | None = None,
    autoencoder: MlpParams | None = None,
    dataset_path: str | None = None,
    extra: dict | None = None,
) -> None:
    manifest = {
        "config_digest": config_digest(config, train),
        "task": asdict(config),
        "train": asdict(train) if train is not None else None,
        "seed": seed,
        "env_seeds": env_seeds,
        "cells": [list(c) for c in cells] if cells is not None else None,
        "encoder_digest": params_digest(encoder) if encoder is not None else None,
        "autoencoder_digest": (
            params_digest(autoencoder) if autoencoder is not None else None
        ),
        "dataset_path": dataset_path,
    }
    if extra:
        manifest.update(extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")


# SVG rendering. Hand-assembled markup with fixed float formatting keeps the
# byte output deterministic.

_SCALE = 1000.0
_MARGIN = 40.0


def _sx(x: float) -> str:
    return f"{_MARGIN + x * _SCALE:.2f}"


def _sy(y: float, height: float) -> str:
    return f"{_MARGIN + (height - y) * _SCALE:.2f}"


def _chain_svg(
    state: EnvState, config: TaskConfig, color: str, opacity: str, tag: str
) -> list[str]:
    h = config.workspace_height
    pts = " ".join(f"{_sx(x)},{_sy(y, h)}" for x, y in state.q)
    out = [
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="3" opacity="{opacity}"/>'
    ]
    for i, (x, y) in enumerate(state.q):
        out.append(
            f'<circle cx="{_sx(x)}" cy="{_sy(y, h)}" r="4" fill="{color}" '
            f'opacity="{opacity}"/>'
        )
        if tag == "main":
            out.append(
                f'<text x="{_sx(x)}" y="{_sy(y, h)}" dx="5" dy="-5" '
                f'font-size="11" fill="#333">{i + 1}</text>'
            )
    return out


def render_state_svg(
    state: EnvState,
    config: TaskConfig,
    subgoal: EnvState | None = None,
    title: str = "",
) -> str:
    """One frame: workspace, obstacles with clearance rings, reach annuli,
    the chain with keypoint indices, and an optional subgoal ghost."""
    w = config.workspace_width
    h = config.workspace_height
    width_px = 2 * _MARGIN + w * _SCALE
    height_px = 2 * _MARGIN + h * _SCALE
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px:.0f}" '
        f'height="{height_px:.0f}" viewBox="0 0 {width_px:.0f} '
        f'{height_px:.0f}">',
        f'<rect x="{_MARGIN:.2f}" y="{_MARGIN:.2f}" width="{w * _SCALE:.2f}" '
        f'height="{h * _SCALE:.2f}" fill="#fbfbf8" stroke="#444"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_MARGIN:.2f}" y="{_MARGIN - 12:.2f}" font-size="16" '
            f'fill="#222">{title}</text>'
        )
    for arm_id in (1, 2):
        bx, by = config.arm_bases[arm_id - 1]
        for radius, dash in (
            (config.reach_min, "4 4"),
            (config.reach_max, "8 4"),
        ):
            parts.append(
                f'<circle cx="{_sx(bx)}" cy="{_sy(by, h)}" '
                f'r="{radius * _SCALE:.2f}" fill="none" stroke="#4a7" '
                f'stroke-dasharray="{dash}" opacity="0.6"/>'
            )
        parts.append(
            f'<rect x="{float(_sx(bx)) - 6:.2f}" y="{float(_sy(by, h)) - 6:.2f}" '
            f'width="12" height="12" fill="#274" />'
        )
        parts.append(
            f'<text x="{_sx(bx)}" y="{_sy(by, h)}" dx="8" dy="16" '
            f'font-size="13" fill="#274">arm {arm_id}</text>'
        )
    for ox, oy in state.o:
        parts.append(
            f'<circle cx="{_sx(ox)}" cy="{_sy(oy, h)}" '
            f'r="{config.obstacle_radius * _SCALE:.2f}" fill="#b44" '
            f'opacity="0.8"/>'
        )
        parts.append(
            f'<circle cx="{_sx(ox)}" cy="{_sy(oy, h)}" '
            f'r="{config.obstacle_clearance * _SCALE:.2f}" fill="none" '
            f'stroke="#b44" stroke-dasharray="3 3" opacity="0.5"/>'
        )
    if subgoal is not None:
        parts.extend(_chain_svg(subgoal, config, "#69c", "0.35", "ghost"))
    parts.extend(_chain_svg(state, config, "#222", "1.0", "main"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_episode(result: EpisodeResult, config: TaskConfig, out_dir: str) -> list[str]:
    """One SVG per recorded state; the frame for step t overlays the subgoal
    pursued at step t (the final frame has none). Frames of an earlier,
    longer episode in `out_dir` are removed, and no other file. Returns
    written paths."""
    os.makedirs(out_dir, exist_ok=True)
    names = [f"step_{t:03d}.svg" for t in range(len(result.states))]
    for name in set(os.listdir(out_dir)) - set(names):
        if re.fullmatch(r"step_(\d{3}|[1-9]\d{3,})\.svg", name):
            os.remove(os.path.join(out_dir, name))
    paths = []
    for t, (state, name) in enumerate(zip(result.states, names)):
        subgoal = result.subgoals[t] if t < len(result.subgoals) else None
        title = f"step {t}/{result.steps}" + (
            " (success)" if result.success and t == result.steps else ""
        )
        svg = render_state_svg(state, config, subgoal, title)
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(svg)
        paths.append(path)
    return paths


def render_curve_svg(result: SweepResult) -> str:
    """Line chart of success rate against the swept parameter."""
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 70.0, 20.0, 40.0, 60.0
    xs = [p.value for p in result.points]
    ys = [p.metrics.success_rate for p in result.points]
    x0, x1 = min(xs), max(xs)
    span = (x1 - x0) or 1.0

    def px(v: float) -> float:
        return ml + (v - x0) / span * (width - ml - mr)

    def py(v: float) -> float:
        return height - mb - v / 100.0 * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{ml:.0f}" y="24" font-size="16" fill="#222">'
        f"success rate vs {result.param}</text>",
    ]
    for tick in range(0, 101, 20):
        y = py(tick)
        parts.append(
            f'<line x1="{ml:.1f}" y1="{y:.1f}" x2="{width - mr:.1f}" '
            f'y2="{y:.1f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{ml - 10:.1f}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end" fill="#555">{tick}</text>'
        )
    for v in xs:
        parts.append(
            f'<text x="{px(v):.1f}" y="{height - mb + 18:.1f}" font-size="11" '
            f'text-anchor="middle" fill="#555">{v:g}</text>'
        )
    pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#27c" stroke-width="2"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="4" fill="#27c"/>'
        )
    parts.append(
        f'<text x="{(width + ml - mr) / 2:.1f}" y="{height - 16:.1f}" '
        f'font-size="13" text-anchor="middle" fill="#222">{result.param}</text>'
    )
    parts.append(
        f'<text x="18" y="{(height - mb + mt) / 2:.1f}" font-size="13" '
        f'fill="#222" transform="rotate(-90 18 {(height - mb + mt) / 2:.1f})" '
        f'text-anchor="middle">success rate %</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
