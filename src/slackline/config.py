"""Task and training configuration.

Defaults reproduce the benchmark's reference setting: a 1.0 m x 0.6 m planar
workspace, a 16-keypoint chain of sampled length 0.5-0.7 m with joint bends
capped at 1 rad, four 0.04 m obstacles with 0.1 m center clearance, and two
arms at (0.16, 0.3) / (0.84, 0.3) whose open reach annuli (0.15, 0.45) leave
a thin shared region in the middle of the table.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any

from .geometry import ArmSpec, Obstacle, Point


@dataclass(frozen=True)
class TaskConfig:
    workspace_width: float = 1.0
    workspace_height: float = 0.6
    keypoint_count: int = 16
    dlo_length_range: tuple[float, float] = (0.5, 0.7)
    joint_limit: float = 1.0
    obstacle_radius: float = 0.04
    obstacle_count: int = 4
    reach_min: float = 0.15
    reach_max: float = 0.45
    obstacle_clearance: float = 0.1
    max_step: float = 0.10
    min_pick_separation: float = 0.15
    arm_bases: tuple[tuple[float, float], tuple[float, float]] = (
        (0.16, 0.3),
        (0.84, 0.3),
    )
    horizon_max: int = 12

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.keypoint_count < 3:
            raise ValueError(f"keypoint_count must be >= 3, got {self.keypoint_count}")
        lo, hi = self.dlo_length_range
        if not 0.0 < lo <= hi:
            raise ValueError(f"bad dlo_length_range {self.dlo_length_range}")
        for name in (
            "workspace_width",
            "workspace_height",
            "joint_limit",
            "obstacle_radius",
            "reach_min",
            "reach_max",
            "obstacle_clearance",
            "max_step",
            "min_pick_separation",
        ):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.reach_min >= self.reach_max:
            raise ValueError("reach_min must be smaller than reach_max")
        if self.obstacle_clearance < self.obstacle_radius:
            raise ValueError("obstacle_clearance must be >= obstacle_radius")
        if self.obstacle_count < 0:
            raise ValueError("obstacle_count must be >= 0")
        if self.horizon_max < 1:
            raise ValueError("horizon_max must be >= 1")
        (x1, y1), (x2, y2) = self.arm_bases
        base_gap = ((x1 - x2) ** 2 + (y1 - y2) ** 2) ** 0.5
        # the arms must share a common workspace region
        if base_gap >= 2.0 * self.reach_max:
            raise ValueError(
                f"arm bases {base_gap:.3f} m apart leave no shared region "
                f"(need < {2.0 * self.reach_max:.3f} m)"
            )

    def arm(self, arm_id: int) -> ArmSpec:
        """ArmSpec for arm 1 or arm 2."""
        if arm_id not in (1, 2):
            raise ValueError(f"arm_id must be 1 or 2, got {arm_id}")
        bx, by = self.arm_bases[arm_id - 1]
        return ArmSpec(Point(bx, by), self.reach_min, self.reach_max)

    def obstacle(self, center: tuple[float, float]) -> Obstacle:
        return Obstacle(
            Point(center[0], center[1]), self.obstacle_radius, self.obstacle_clearance
        )


@dataclass(frozen=True)
class TrainConfig:
    embed_dim: int = 32
    negatives: int = 31
    batch_anchors: int = 64
    epochs: int = 30
    learning_rate: float = 5e-4
    seed: int = 0

    def __post_init__(self) -> None:
        _check_finite(self)
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        for name in ("embed_dim", "batch_anchors", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")


def _finite(value: Any) -> bool:
    if isinstance(value, (tuple, list)):
        return all(_finite(v) for v in value)
    # an int is finite, and may be too large to convert to a float
    return isinstance(value, int) or math.isfinite(value)


def _check_finite(cfg: Any) -> None:
    """Refuse a NaN or an infinity in any field, tuple items included."""
    for name, value in vars(cfg).items():
        if not _finite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _fits(value: Any, default: Any) -> bool:
    """Whether a JSON value has the type of a field's default: an int (not
    a bool) for an int, an int or a float for a float, and a list of the
    default's length whose items fit for a tuple."""
    if isinstance(default, tuple):
        return (isinstance(value, list) and len(value) == len(default)
                and all(_fits(v, d) for v, d in zip(value, default)))
    if isinstance(value, bool):
        return False
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return isinstance(value, type(default))


def _apply_fields(cfg: Any, data: Any, source: str) -> Any:
    if not isinstance(data, dict):
        raise ValueError(f"{source}: block must be a JSON object")
    known = set(asdict(cfg))
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"{source}: unknown field(s) {sorted(unknown)}")
    coerced: dict[str, Any] = {}
    for key, value in data.items():
        default = getattr(cfg, key)
        if not _fits(value, default):
            kind = ("a list shaped like" if isinstance(default, tuple) else
                    "a number like" if isinstance(default, float) else
                    "an integer like")
            raise ValueError(
                f"{source}: field {key!r} must be {kind} its default "
                f"{json.dumps(default)}, got {json.dumps(value)}"
            )
        if isinstance(value, list):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        coerced[key] = value
    try:
        return replace(cfg, **coerced)
    except ValueError as err:
        raise ValueError(f"{source}: {err}") from err


def load_config_file(path: str) -> tuple[TaskConfig, TrainConfig]:
    """Read a JSON config file with optional "task" and "train" blocks,
    overriding the defaults field by field."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config root must be a JSON object")
    extra = set(data) - {"task", "train"}
    if extra:
        raise ValueError(f"{path}: unknown top-level key(s) {sorted(extra)}")
    task = _apply_fields(TaskConfig(), data.get("task", {}), f"{path}: task")
    train = _apply_fields(TrainConfig(), data.get("train", {}), f"{path}: train")
    return task, train


def config_digest(task: TaskConfig, train: TrainConfig | None = None) -> str:
    """Stable sha256 over the canonical JSON form of the configuration."""
    payload: dict[str, Any] = {"task": asdict(task)}
    if train is not None:
        payload["train"] = asdict(train)
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()
