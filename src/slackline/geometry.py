"""Planar geometric kernel: segment/point distances, annulus and clearance
predicates, and swept-segment feasibility for straight pick-and-place drags.

All feasibility predicates use strict inequalities; boundary values are
infeasible. Every function is pure and total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence


class Point(NamedTuple):
    x: float
    y: float


class Segment(NamedTuple):
    """Straight planar drag from a pick point to a place point."""

    p1: Point
    p2: Point


@dataclass(frozen=True)
class ArmSpec:
    """Arm abstracted to its base position and an open reach annulus."""

    base: Point
    reach_min: float
    reach_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.reach_min < self.reach_max:
            raise ValueError(
                f"require 0 < reach_min < reach_max, got "
                f"({self.reach_min}, {self.reach_max})"
            )


@dataclass(frozen=True)
class Obstacle:
    """Circular obstacle; clearance is measured from the center and already
    includes the gripper margin, so clearance >= radius."""

    center: Point
    radius: float
    clearance: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"obstacle radius must be positive, got {self.radius}")
        if self.clearance < self.radius:
            raise ValueError(
                f"clearance {self.clearance} smaller than radius {self.radius}"
            )


# Scalar kernels. These are the hot path for the simulator and controller,
# which call them tens of thousands of times per episode batch; they take
# bare floats to avoid tuple construction overhead.


def seg_point_min_dist_xy(
    ax: float, ay: float, bx: float, by: float, px: float, py: float
) -> float:
    abx = bx - ax
    aby = by - ay
    apx = px - ax
    apy = py - ay
    denom = abx * abx + aby * aby
    if denom < 1e-30:
        return math.hypot(apx, apy)
    t = (apx * abx + apy * aby) / denom
    if t <= 0.0:
        return math.hypot(apx, apy)
    if t >= 1.0:
        return math.hypot(px - bx, py - by)
    return math.hypot(apx - t * abx, apy - t * aby)


def seg_point_max_dist_xy(
    ax: float, ay: float, bx: float, by: float, px: float, py: float
) -> float:
    return max(math.hypot(px - ax, py - ay), math.hypot(px - bx, py - by))


def sequence_feasible_xy(
    ax: float,
    ay: float,
    bx: float,
    by: float,
    base_x: float,
    base_y: float,
    reach_min: float,
    reach_max: float,
    obstacles_xy: Sequence[Sequence[float]],
    clearance: float,
) -> bool:
    """Swept-segment feasibility against one arm annulus and shared-clearance
    obstacles; the continuous check, not a sampled one. Each test is written
    as "not strictly inside" so that a NaN coordinate is infeasible."""
    if not seg_point_min_dist_xy(ax, ay, bx, by, base_x, base_y) > reach_min:
        return False
    if not seg_point_max_dist_xy(ax, ay, bx, by, base_x, base_y) < reach_max:
        return False
    for ox, oy in obstacles_xy:
        if not seg_point_min_dist_xy(ax, ay, bx, by, ox, oy) > clearance:
            return False
    return True


# Typed wrappers over the scalar kernels.


def seg_point_min_dist(seg: Segment, p: Point) -> float:
    """Distance from p to the closest point of the segment.

    Perpendicular distance when the orthogonal projection of p falls inside
    the segment, else the nearer endpoint distance; a degenerate segment
    reduces to |p - p1|.
    """
    return seg_point_min_dist_xy(seg.p1.x, seg.p1.y, seg.p2.x, seg.p2.y, p.x, p.y)


def seg_point_max_dist(seg: Segment, p: Point) -> float:
    """Distance from p to the farthest point of the segment, which always
    lies at an endpoint."""
    return seg_point_max_dist_xy(seg.p1.x, seg.p1.y, seg.p2.x, seg.p2.y, p.x, p.y)


def waypoint_valid(p: Point, arm: ArmSpec, obstacles: Sequence[Obstacle]) -> bool:
    """True iff p lies strictly inside the arm's reach annulus and strictly
    farther than every obstacle's clearance from its center: the swept
    segment of a drag that does not move."""
    return sequence_feasible(Segment(p, p), arm, obstacles)


def sequence_feasible(
    seg: Segment, arm: ArmSpec, obstacles: Sequence[Obstacle]
) -> bool:
    """True iff every point of the swept segment is a valid waypoint for the
    arm: min distance to the base exceeds reach_min, max distance stays under
    reach_max, and min distance to each obstacle center exceeds its clearance.
    """
    (ax, ay), (bx, by) = seg
    drag = (ax, ay, bx, by, arm.base.x, arm.base.y, arm.reach_min, arm.reach_max)
    # each obstacle carries its own clearance
    return sequence_feasible_xy(*drag, (), 0.0) and all(
        sequence_feasible_xy(*drag, (ob.center,), ob.clearance) for ob in obstacles
    )
