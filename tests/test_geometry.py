import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slackline.geometry import (
    ArmSpec,
    Obstacle,
    Point,
    Segment,
    seg_point_max_dist,
    seg_point_min_dist,
    sequence_feasible,
    sequence_feasible_xy,
    waypoint_valid,
)

coord = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=64)


def seg(ax, ay, bx, by):
    return Segment(Point(ax, ay), Point(bx, by))


def sampled_min_dist(s: Segment, p: Point, n: int = 10_000) -> float:
    ts = np.linspace(0.0, 1.0, n)
    xs = s.p1.x + ts * (s.p2.x - s.p1.x)
    ys = s.p1.y + ts * (s.p2.y - s.p1.y)
    return float(np.hypot(xs - p.x, ys - p.y).min())


def sampled_max_dist(s: Segment, p: Point, n: int = 10_000) -> float:
    ts = np.linspace(0.0, 1.0, n)
    xs = s.p1.x + ts * (s.p2.x - s.p1.x)
    ys = s.p1.y + ts * (s.p2.y - s.p1.y)
    return float(np.hypot(xs - p.x, ys - p.y).max())


def sampled_feasible(s, arm, obstacles, n: int = 10_000) -> bool:
    """Brute-force oracle: the waypoint predicate checked pointwise along a
    dense sampling of the swept segment."""
    ts = np.linspace(0.0, 1.0, n)
    xs = s.p1.x + ts * (s.p2.x - s.p1.x)
    ys = s.p1.y + ts * (s.p2.y - s.p1.y)
    d = np.hypot(xs - arm.base.x, ys - arm.base.y)
    if not ((d > arm.reach_min) & (d < arm.reach_max)).all():
        return False
    for ob in obstacles:
        if (np.hypot(xs - ob.center.x, ys - ob.center.y) <= ob.clearance).any():
            return False
    return True


class TestMinDist:
    def test_perpendicular_foot_inside(self):
        assert seg_point_min_dist(seg(0, 0, 1, 0), Point(0.5, 0.3)) == pytest.approx(0.3)

    def test_projection_outside_uses_endpoint(self):
        assert seg_point_min_dist(seg(0, 0, 1, 0), Point(2, 0)) == pytest.approx(1.0)

    def test_degenerate_segment(self):
        assert seg_point_min_dist(seg(0.5, 0.5, 0.5, 0.5), Point(0.5, 1.0)) == pytest.approx(0.5)


class TestMaxDist:
    def test_interior_point(self):
        d = seg_point_max_dist(seg(0, 0, 1, 0), Point(0.5, 0.3))
        assert d == pytest.approx(math.sqrt(0.34))

    def test_collinear(self):
        assert seg_point_max_dist(seg(0, 0, 1, 0), Point(2, 0)) == pytest.approx(2.0)

    def test_degenerate(self):
        assert seg_point_max_dist(seg(0, 0, 0, 0), Point(3, 4)) == pytest.approx(5.0)


class TestWaypointValid:
    arm = ArmSpec(Point(0.2, 0.3), 0.15, 0.45)

    def test_inside_annulus_and_clear(self):
        obstacle = Obstacle(Point(0.55, 0.3), 0.04, 0.1)
        assert waypoint_valid(Point(0.4, 0.3), self.arm, [obstacle])

    def test_clearance_is_strict(self):
        obstacle = Obstacle(Point(0.5, 0.3), 0.04, 0.1)
        assert not waypoint_valid(Point(0.4, 0.3), self.arm, [obstacle])

    def test_below_reach_min(self):
        assert not waypoint_valid(Point(0.3, 0.3), self.arm, [])

    def test_beyond_reach_max(self):
        assert not waypoint_valid(Point(0.7, 0.3), self.arm, [])


class TestSequenceFeasible:
    arm = ArmSpec(Point(0.2, 0.3), 0.15, 0.45)

    def test_obstacle_too_close(self):
        obstacle = Obstacle(Point(0.5, 0.3), 0.04, 0.1)
        assert not sequence_feasible(seg(0.4, 0.3, 0.45, 0.3), self.arm, [obstacle])

    def test_clear_path(self):
        obstacle = Obstacle(Point(0.4, 0.6), 0.04, 0.1)
        assert sequence_feasible(seg(0.4, 0.3, 0.45, 0.3), self.arm, [obstacle])

    def test_agrees_with_dense_sampling_oracle(self):
        rng = np.random.default_rng(12345)
        agree = 0
        checked = 0
        for _ in range(1000):
            s = seg(*rng.uniform(-1, 2, size=4))
            arm = ArmSpec(Point(*rng.uniform(0, 1, size=2)), 0.15, 0.45)
            obstacles = [
                Obstacle(Point(*rng.uniform(0, 1, size=2)), 0.04, 0.1)
                for _ in range(rng.integers(0, 3))
            ]
            got = sequence_feasible(s, arm, obstacles)
            want = sampled_feasible(s, arm, obstacles)
            # skip instances within sampling resolution of a threshold
            margins = [
                abs(seg_point_min_dist(s, arm.base) - arm.reach_min),
                abs(seg_point_max_dist(s, arm.base) - arm.reach_max),
            ]
            margins += [
                abs(seg_point_min_dist(s, ob.center) - ob.clearance)
                for ob in obstacles
            ]
            if min(margins) < 1e-4:
                continue
            checked += 1
            agree += got == want
        assert checked > 900
        assert agree == checked


@given(coord, coord, coord, coord, coord, coord)
def test_min_leq_max(ax, ay, bx, by, px, py):
    s = seg(ax, ay, bx, by)
    p = Point(px, py)
    assert seg_point_min_dist(s, p) <= seg_point_max_dist(s, p) + 1e-12


@given(coord, coord, coord, coord, coord, coord)
def test_min_bounded_by_endpoints(ax, ay, bx, by, px, py):
    s = seg(ax, ay, bx, by)
    p = Point(px, py)
    d_end = min(math.hypot(px - ax, py - ay), math.hypot(px - bx, py - by))
    d = seg_point_min_dist(s, p)
    assert d <= d_end + 1e-12


@given(coord, coord, coord, coord, coord, coord, coord, coord)
@settings(max_examples=200)
def test_translation_invariance(ax, ay, bx, by, px, py, tx, ty):
    s1 = seg(ax, ay, bx, by)
    s2 = seg(ax + tx, ay + ty, bx + tx, by + ty)
    p1 = Point(px, py)
    p2 = Point(px + tx, py + ty)
    assert seg_point_min_dist(s1, p1) == pytest.approx(
        seg_point_min_dist(s2, p2), abs=1e-12
    )
    assert seg_point_max_dist(s1, p1) == pytest.approx(
        seg_point_max_dist(s2, p2), abs=1e-12
    )


@given(st.data())
@settings(max_examples=200)
def test_feasible_sequence_has_valid_endpoints(data):
    rng_vals = data.draw(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=8, max_size=8)
    )
    ax, ay, bx, by, ox, oy, cx, cy = rng_vals
    s = seg(ax, ay, bx, by)
    arm = ArmSpec(Point(cx, cy), 0.15, 0.45)
    obstacles = [Obstacle(Point(ox, oy), 0.04, 0.1)]
    if sequence_feasible(s, arm, obstacles):
        assert waypoint_valid(s.p1, arm, obstacles)
        assert waypoint_valid(s.p2, arm, obstacles)


def test_typed_sequence_feasible_equals_xy_kernel():
    """The typed predicate and the scalar kernel agree on random segments,
    one in four of zero length, and on segments ending exactly on the reach
    annulus or an obstacle's clearance circle (all values dyadic)."""
    rng = np.random.default_rng(2024)
    cases = []
    for i in range(2000):
        ax, ay, bx, by = rng.uniform(-0.2, 1.2, size=4)
        if i % 4 == 0:
            bx, by = ax, ay
        base = tuple(rng.uniform(0.0, 1.0, size=2))
        centers = [tuple(rng.uniform(0.0, 1.0, size=2))
                   for _ in range(rng.integers(0, 4))]
        cases.append(((ax, ay, bx, by), base, 0.15, 0.45, centers, 0.1))
    for end in [(0.375, 0.25), (0.25, 0.75), (0.25, 0.5)]:
        for a in [end, (0.25, 0.375)]:
            cases.append(((*a, *end), (0.25, 0.25), 0.125, 0.5,
                          [(0.375, 0.5)], 0.125))
    outcomes = set()
    for (ax, ay, bx, by), base, r_min, r_max, centers, clearance in cases:
        arm = ArmSpec(Point(*base), r_min, r_max)
        obstacles = [Obstacle(Point(*c), 0.0625, clearance) for c in centers]
        typed = sequence_feasible(seg(ax, ay, bx, by), arm, obstacles)
        assert typed == sequence_feasible_xy(ax, ay, bx, by, *base, r_min, r_max,
                                             centers, clearance)
        if (ax, ay) == (bx, by):
            assert typed == waypoint_valid(Point(ax, ay), arm, obstacles)
        outcomes.add(typed)
    assert outcomes == {True, False}


def test_nan_is_infeasible():
    nan = float("nan")
    for ax, ay in [(nan, 0.3), (0.4, nan)]:
        assert not sequence_feasible_xy(ax, ay, 0.4, 0.3, 0.16, 0.3, 0.15, 0.45,
                                        [], 0.1)
        assert not waypoint_valid(Point(ax, ay), ArmSpec(Point(0.16, 0.3), 0.15, 0.45),
                                  [])


def test_arm_spec_validation():
    with pytest.raises(ValueError):
        ArmSpec(Point(0, 0), 0.5, 0.4)
    with pytest.raises(ValueError):
        ArmSpec(Point(0, 0), 0.0, 0.4)


def test_obstacle_validation():
    with pytest.raises(ValueError):
        Obstacle(Point(0, 0), -0.1, 0.2)
    with pytest.raises(ValueError):
        Obstacle(Point(0, 0), 0.2, 0.1)
