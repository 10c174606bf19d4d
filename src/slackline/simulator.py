"""Deterministic quasi-static chain world.

The deformable linear object is an ordered chain of equal-length links with a
per-joint bend limit. A pick-and-place action pins one keypoint and drags it
along a straight segment in 64 substeps; after each substep up to 10
projection iterations re-solve the chain with a constrained follow-the-leader
pass outward from the pin (exact link lengths, bends clamped into the joint
cone, placements kept inside the workspace and outside the obstacle discs).
When a point has no placement that satisfies its cone, the walls and the
discs, the pass turns the already placed chain beyond one joint nearer the
pin, within that joint's bend slack, so that the point has one; where no
turn gives one, the cone wins and the point may be left in contact with a
disc. A settle phase at the end of the drag plus a final exact
inextensibility rebuild make link lengths exact while preserving link
directions, so bend angles survive unchanged.

A bimanual action runs its leader's drag, then its follower's drag from the
leader's result at file precision; each drag is checked against the state
it starts from.

The executor's contract on every executed action: link lengths exact to
1e-9, every bend within the joint limit plus 1e-9, and no keypoint or link
midpoint more than 1 mm inside an obstacle disc. Contact less than 1 mm deep,
left where the cone wins, is accepted; the projection is the only contact
mechanism. The walls are not part of the contract: a chain pressed against a
wall by constraints that genuinely conflict can be left outside the
workspace.

Everything here is a pure function of (state, action, config) or of
(config, seed); there is no hidden state and no wall-clock dependence.

States, drags and actions are slotted frozen values, and the states of one
environment share one read-only obstacle array (see `EnvState`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import TaskConfig
from .geometry import Obstacle, Point, Segment, sequence_feasible_xy
from .seeding import make_rng

SUBSTEPS = 64
PROJECTION_ITERS = 10
SETTLE_ITERS = 50
GENERATION_BUDGET = 10_000

# Slack tolerances of the executor contract.
DISPLACEMENT_TOL = 1e-9
_FTL_SKIP = 1e-13
_CONVERGED = 1e-12


class GenerationError(RuntimeError):
    """Environment generation exhausted its rejection budget."""


class InfeasibleActionError(ValueError):
    """Action violates execute() preconditions; the state is unchanged."""


def quantize(x: float) -> float:
    """Round to 9 significant digits, the file precision for coordinates."""
    return float(format(x, ".9g"))


def quantize_all(values: list[float]) -> list[float]:
    """quantize() of every value, bit for bit, in one formatting call:
    %-formatting and format() render a float with the same routine."""
    return [float(v) for v in (("%.9g " * len(values)) % tuple(values)).split()]


@dataclass(frozen=True, eq=False, slots=True)
class EnvState:
    """M ordered keypoints plus B obstacle centers; q[0] corresponds to
    arm 1 and q[-1] to arm 2.

    Both arrays are read-only. An `o` given as a (B, 2) float64 array is
    kept as it is, and the executor never moves obstacles, so the states of
    one environment hold one obstacle array. Pickling goes through the
    constructor: an unpickled state is read-only too, and pickle's memo
    keeps the shared `o`."""

    q: np.ndarray
    o: np.ndarray

    def __post_init__(self) -> None:
        # not asarray(x, dtype=float64): it views an unpickled array, whose
        # dtype is an equal copy of float64
        q = np.asarray(self.q).astype(np.float64, copy=False)
        o = np.asarray(self.o).astype(np.float64, copy=False)
        if q.ndim != 2 or q.shape[1] != 2 or q.shape[0] < 3:
            raise ValueError(f"keypoints must be (M>=3, 2), got {q.shape}")
        if o.ndim != 2 or o.shape[1] != 2:
            o = o.reshape(-1, 2) if o.size else o.reshape(0, 2)
        q.setflags(write=False)
        o.setflags(write=False)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "o", o)

    def __reduce__(self) -> tuple:
        return EnvState, (self.q, self.o)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EnvState):
            return NotImplemented
        return np.array_equal(self.q, other.q) and np.array_equal(self.o, other.o)

    @property
    def keypoint_count(self) -> int:
        return self.q.shape[0]

    def row(self) -> np.ndarray:
        """The state as one flat vector: keypoints, then obstacle centers.
        Every model input and planner index is built from these rows."""
        return np.concatenate([self.q.ravel(), self.o.ravel()])

    def link_length(self) -> float:
        """Mean consecutive keypoint distance; for valid chains this is the
        common link length."""
        diffs = np.diff(self.q, axis=0)
        return float(np.mean(np.hypot(diffs[:, 0], diffs[:, 1])))

    def dlo_length(self) -> float:
        return self.link_length() * (self.keypoint_count - 1)

    def obstacles(self, config: TaskConfig) -> list[Obstacle]:
        return [config.obstacle((float(x), float(y))) for x, y in self.o]

    def quantized(self) -> "EnvState":
        """Copy rounded to the 9-significant-digit file precision; it keeps
        this state's `o` where rounding leaves its bits unchanged. Its arrays
        own their data, with no second ndarray object as a base."""
        q = np.array(quantize_all(self.q.ravel().tolist()))
        o = np.array(quantize_all(self.o.ravel().tolist()))
        q.shape, o.shape = self.q.shape, self.o.shape
        return EnvState(q, self.o if o.tobytes() == self.o.tobytes() else o)

    def to_obj(self) -> dict:
        q = quantize_all(self.q.ravel().tolist())
        o = quantize_all(self.o.ravel().tolist())
        return {
            "q": [q[i:i + 2] for i in range(0, len(q), 2)],
            "o": [o[i:i + 2] for i in range(0, len(o), 2)],
        }

    @staticmethod
    def from_obj(obj: dict, like: "EnvState | None" = None) -> "EnvState":
        """The state `obj` holds; it takes `like`'s `o` where its obstacles
        equal those bit for bit."""
        if not isinstance(obj, dict) or "q" not in obj or "o" not in obj:
            raise ValueError("state object must carry 'q' and 'o'")
        o = np.asarray(obj["o"], dtype=np.float64)
        if like is not None and o.tobytes() == like.o.tobytes():
            o = like.o
        return EnvState(np.asarray(obj["q"], dtype=np.float64), o)

    @staticmethod
    def list_from_obj(objs: list) -> list["EnvState"]:
        """The states `objs` holds; those whose obstacles equal the first
        state's bit for bit share that state's one `o`."""
        first = [EnvState.from_obj(s) for s in objs[:1]]
        return first + [EnvState.from_obj(s, first[0]) for s in objs[1:]]


@dataclass(frozen=True, slots=True)
class PickPlace:
    """One arm's straight drag of one keypoint."""

    arm_id: int
    pick_index: int
    pick: tuple[float, float]
    place: tuple[float, float]

    def __post_init__(self) -> None:
        if self.arm_id not in (1, 2):
            raise ValueError(f"arm_id must be 1 or 2, got {self.arm_id}")
        object.__setattr__(self, "pick", (float(self.pick[0]), float(self.pick[1])))
        object.__setattr__(self, "place", (float(self.place[0]), float(self.place[1])))

    def segment(self) -> Segment:
        return Segment(Point(*self.pick), Point(*self.place))

    def displacement(self) -> float:
        return math.hypot(self.place[0] - self.pick[0], self.place[1] - self.pick[1])

    def to_obj(self) -> dict:
        return {
            "arm": self.arm_id,
            "k": self.pick_index,
            "pick": [quantize(self.pick[0]), quantize(self.pick[1])],
            "place": [quantize(self.place[0]), quantize(self.place[1])],
        }

    @staticmethod
    def from_obj(obj: dict) -> "PickPlace":
        return PickPlace(int(obj["arm"]), int(obj["k"]),
                         (obj["pick"][0], obj["pick"][1]),
                         (obj["place"][0], obj["place"][1]))


@dataclass(frozen=True, slots=True)
class ActionPair:
    """Bimanual action: a leader drag and an optional follower drag."""

    leader: PickPlace
    follower: PickPlace | None = None

    def sequences(self) -> Iterator[PickPlace]:
        yield self.leader
        if self.follower is not None:
            yield self.follower

    def to_obj(self) -> dict:
        return {
            "leader": self.leader.to_obj(),
            "follower": None if self.follower is None else self.follower.to_obj(),
        }

    @staticmethod
    def from_obj(obj: dict) -> "ActionPair":
        follower = obj.get("follower")
        return ActionPair(
            PickPlace.from_obj(obj["leader"]),
            None if follower is None else PickPlace.from_obj(follower),
        )


@dataclass
class ExecStats:
    """Projection diagnostics, mainly for tests and audits."""

    joint_clamps: int = 0
    obstacle_pushes: int = 0  # always 0: no pass pushes points out of a disc
    workspace_clamps: int = 0
    placement_conflicts: int = 0


def goal_reached(state: EnvState, config: TaskConfig) -> bool:
    """True iff endpoint 1 is a valid waypoint for arm 1 and endpoint M for
    arm 2: the swept segment of a drag that does not move."""
    obstacles = state.o.tolist()
    return all(
        sequence_feasible_xy(
            x, y, x, y, *config.arm_bases[arm_id - 1], config.reach_min,
            config.reach_max, obstacles, config.obstacle_clearance,
        )
        for arm_id, (x, y) in ((1, state.q[0].tolist()), (2, state.q[-1].tolist()))
    )


def reward(next_state: EnvState, config: TaskConfig) -> int:
    """Sparse reward: 1 iff the next state lies in the goal space."""
    return 1 if goal_reached(next_state, config) else 0


# Executor


def execute(state: EnvState, action: ActionPair, config: TaskConfig) -> EnvState:
    new_state, _ = execute_with_stats(state, action, config)
    return new_state


def execute_with_stats(
    state: EnvState, action: ActionPair, config: TaskConfig
) -> tuple[EnvState, ExecStats]:
    """Run the quasi-static transition: the leader's drag, then the
    follower's drag from the leader's result at file precision, the state
    the controller chose the follower on.

    Raises InfeasibleActionError (leaving the state untouched) when the two
    drags use one arm or pick closer than the separation threshold, or when
    a drag fails its checks against the state it starts from: its pick must
    match the keypoint it names, its displacement stay within the max step
    and its swept segment be feasible for its arm.
    """
    follower = action.follower
    if follower is not None:
        check_pair(action.leader, follower, config)
    stats = ExecStats()
    new_state = _drag(state, action.leader, config, stats)
    if follower is not None:
        new_state = _drag(new_state.quantized(), follower, config, stats)
    return new_state, stats


def check_pair(leader: PickPlace, follower: PickPlace, config: TaskConfig) -> None:
    """Raise InfeasibleActionError unless the two drags of one action use
    different arms and pick more than the separation threshold apart."""
    if follower.arm_id == leader.arm_id:
        raise InfeasibleActionError("leader and follower must use different arms")
    sep = math.hypot(
        leader.pick[0] - follower.pick[0], leader.pick[1] - follower.pick[1]
    )
    if sep <= config.min_pick_separation:
        raise InfeasibleActionError(
            f"pick separation {sep:.6f} not above {config.min_pick_separation}"
        )


def _drag(
    state: EnvState, pp: PickPlace, config: TaskConfig, stats: ExecStats
) -> EnvState:
    """Check one drag against the state it starts from, then drag its
    keypoint, the pin, from where it lies to the drag's place.

    Each substep moves the pin one increment and re-projects the chain with
    the constrained follow-the-leader pass, which restores link lengths while
    keeping bends inside the joint cone and placements inside the workspace
    and outside the obstacle discs; chains pressed against a wall or an
    obstacle slide along it. Where the cone wins, a point may be left in
    contact with a disc; contact under 1 mm is accepted. A settle phase
    guarantees the drag never finishes mid-fight, and the exact rebuild makes
    link lengths exact while preserving directions, so bends survive it.

    Obstacle b's clearance budget is `levels[b] - spent`: a lower bound on
    the clearance of every keypoint but the pin and of every link midpoint
    (the pass neither moves nor tests the pin). `spent` is one running
    charge, the sum of the pin's increments and each pass's displacement
    bound, so a charge costs one addition whatever the obstacle count.
    `_cull` measures a level, the pin included, once its budget is used up
    (every level before the first pass). It works out the obstacles whose
    budget is within _CULL_ALLOWANCE and the next-event charge, at which
    that set or a level next changes; until `spent` reaches it, a pass looks
    at no budget. Each pass skips the disc tests of the other obstacles
    while a point moves less than the allowance (see `_constrained_pass`).
    """
    m = state.keypoint_count
    pin = pp.pick_index
    if not 0 <= pin < m:
        raise InfeasibleActionError(f"pick index {pin} outside 0..{m - 1}")
    xs = state.q[:, 0].tolist()
    ys = state.q[:, 1].tolist()
    x0 = xs[pin]
    y0 = ys[pin]
    if math.hypot(pp.pick[0] - x0, pp.pick[1] - y0) > 1e-9:
        raise InfeasibleActionError(f"pick {pp.pick} does not match keypoint {pin}")
    if pp.displacement() > config.max_step + DISPLACEMENT_TOL:
        raise InfeasibleActionError(
            f"displacement {pp.displacement():.6f} exceeds max step "
            f"{config.max_step}"
        )
    obstacles = [tuple(c) for c in state.o.tolist()]
    if not sequence_feasible_xy(
        *pp.pick, *pp.place, *config.arm_bases[pp.arm_id - 1],
        config.reach_min, config.reach_max, obstacles,
        config.obstacle_clearance,
    ):
        raise InfeasibleActionError(
            f"swept segment {pp.pick}->{pp.place} infeasible for arm {pp.arm_id}"
        )
    tx, ty = pp.place
    if tx == x0 and ty == y0:
        return state
    link_len = state.link_length()
    mu = config.obstacle_radius
    width = config.workspace_width
    height = config.workspace_height
    cos_lim = math.cos(config.joint_limit)
    sin_lim = math.sin(config.joint_limit)
    dot_lim = cos_lim * link_len * link_len

    # every level starts used up, so the first cull measures every obstacle
    levels = [-math.inf] * len(obstacles)
    spent = 0.0
    near, event = _cull(xs, ys, obstacles, mu, levels, spent)
    wall_clamps = conflict_count = cone_clamps = 0

    # the last iteration settles: passes until one moves nothing, so the drag
    # ends on a pass; a substep also stops on a pass without conflicts
    inv = 1.0 / SUBSTEPS
    step_x = tx - x0
    step_y = ty - y0
    for s in range(1, SUBSTEPS + 2):
        settle = s > SUBSTEPS
        if not settle:
            if s == SUBSTEPS:
                px, py = tx, ty
            else:
                t = s * inv
                px = x0 + step_x * t
                py = y0 + step_y * t
            moved = math.hypot(px - xs[pin], py - ys[pin])
            cpx = 0.0 if px < 0.0 else (width if px > width else px)
            cpy = 0.0 if py < 0.0 else (height if py > height else py)
            if cpx != px or cpy != py:
                wall_clamps += 1
                px, py = cpx, cpy
            xs[pin] = px
            ys[pin] = py
            spent += moved

        for _ in range(SETTLE_ITERS if settle else PROJECTION_ITERS):
            if spent >= event:
                near, event = _cull(xs, ys, obstacles, mu, levels, spent)
            max_move, conflicts, cone = _constrained_pass(
                xs, ys, pin, link_len, cos_lim, sin_lim, dot_lim,
                width, height, obstacles, mu, near,
            )
            cone_clamps += cone
            conflict_count += conflicts
            spent += max_move
            if max_move <= _CONVERGED or not (conflicts or settle):
                break

    stats.workspace_clamps += wall_clamps
    stats.placement_conflicts += conflict_count
    stats.joint_clamps += cone_clamps
    _exact_rebuild(xs, ys, pin, link_len)
    return EnvState(np.column_stack([xs, ys]), state.o)


# Disc-test cull. A point whose displacement bound in a pass stays below
# _CULL_ALLOWANCE - _CULL_SLACK cannot reach a disc whose clearance budget
# exceeds _CULL_ALLOWANCE (triangle inequality), so the pass tests it against
# the near obstacles only. Any positive allowance is exact; 1 cm, about six
# pin increments at the default max step, was fastest in a sweep of 2 mm to
# 5 cm (scripts/bench_layers.py). On the executes of three perfbench eval
# rounds a pass's near list holds 0.64 of the 4 discs on average; measuring
# a near disc again at every pass would make that 0.54, but costs more than
# the tests it saves (see `_cull`). The slack keeps a skipped test at least
# 1e-9 clear of firing, far above the rounding of the budgets and the
# distances.
_CULL_ALLOWANCE = 0.01
_CULL_SLACK = 1e-9


def _cull(
    xs: list[float],
    ys: list[float],
    obstacles: list[tuple[float, float]],
    mu: float,
    levels: list[float],
    spent: float,
) -> tuple[list[tuple[float, float]], float]:
    """Measure every obstacle whose budget `levels[b] - spent` is at most
    -_CULL_ALLOWANCE, as every level of -inf is: its level becomes `spent`
    plus the least clearance from its disc of a keypoint, the pin included,
    or a link midpoint (negative inside the disc). Then return the obstacles
    whose budget is within _CULL_ALLOWANCE and the next-event charge: the
    least `spent` at which a far obstacle's budget falls to the allowance or
    a near one's to minus the allowance. Measuring a near obstacle again only lets the cull drop
    it once the chain has moved away, so a chain resting against a disc
    measures it once per allowance of charge, not at every pass."""
    near = []
    event = math.inf
    for b, c in enumerate(obstacles):
        level = levels[b]
        if level <= spent - _CULL_ALLOWANCE:
            # the first "midpoint" is keypoint 0 itself
            ox, oy = c
            best = math.inf
            lx, ly = xs[0], ys[0]
            for x, y in zip(xs, ys):
                dx = x - ox
                dy = y - oy
                d2 = dx * dx + dy * dy
                if d2 < best:
                    best = d2
                dx = 0.5 * (lx + x) - ox
                dy = 0.5 * (ly + y) - oy
                d2 = dx * dx + dy * dy
                if d2 < best:
                    best = d2
                lx, ly = x, y
            level = levels[b] = spent + (math.sqrt(best) - mu)
        if level - spent <= _CULL_ALLOWANCE:
            near.append(c)
            level += _CULL_ALLOWANCE
        else:
            level -= _CULL_ALLOWANCE
        if level < event:
            event = level
    return near, event


def _constrained_pass(
    xs: list[float],
    ys: list[float],
    pin: int,
    link_len: float,
    cos_lim: float,
    sin_lim: float,
    dot_lim: float,
    width: float,
    height: float,
    obstacles: list[tuple[float, float]],
    mu: float,
    near: list[tuple[float, float]],
) -> tuple[float, int, int]:
    """Follow-the-leader projection outward from the pin in both directions.

    Each point is placed at exact link length from its (already projected)
    neighbor, inside the bend cone of the previous link, inside the
    workspace, and outside every obstacle disc for both the point and the
    trailing link midpoint. When no placement satisfies all of them, the
    chain between the pin and the point is bent within its joint slack so
    that one does (`_unwind`); what still conflicts resolves in favor of the
    cone and is counted as a conflict.

    Disc tests are culled to `near`: the obstacles whose clearance budget, a
    lower bound on the clearance of every keypoint but the pin and of every
    link midpoint at the start of the pass, is within _CULL_ALLOWANCE. A
    candidate placement moves its point by `move` from where the pass found
    it, and the trailing midpoint moves by at most the larger of that and
    its neighbor's displacement; every placed point has moved at most
    `max_move + unwound` so far. While that bound stays below the allowance
    less _CULL_SLACK, only the near obstacles can make a test fire, so only
    they are tested; otherwise every obstacle is. The cull decides which
    tests run, never their outcome, so the placements are those of testing
    every obstacle. `_place_constrained` and `_unwind` always see every
    obstacle.

    Returns (bound on any point's displacement, conflict count, cone clamp
    count).
    """
    max_move = 0.0
    unwound = 0.0
    conflicts = 0
    cone_clamps = 0
    m = len(xs)
    sqrt = math.sqrt
    hypot = math.hypot
    inv_len = 1.0 / link_len
    skip2 = 2.0 * link_len * _FTL_SKIP
    link2 = link_len * link_len
    cone_dot = dot_lim * inv_len  # threshold for dot(raw link, unit ref)
    reach = link_len + mu
    mu2 = mu * mu
    cull_below = _CULL_ALLOWANCE - _CULL_SLACK

    for direction in (1, -1):
        if direction == 1:
            first = pin + 1
            last = m
            ref = pin - 1
        else:
            first = pin - 1
            last = -1
            ref = pin + 1
        if first == last:
            continue
        prev_x = xs[pin]
        prev_y = ys[pin]
        # cone reference: the link on the other side of the pin, reversed
        have_ref = 0 <= ref < m
        upx = 0.0
        upy = 0.0
        if have_ref:
            rx = prev_x - xs[ref]
            ry = prev_y - ys[ref]
            rn = sqrt(rx * rx + ry * ry)
            if rn > 1e-15:
                upx = rx / rn
                upy = ry / rn
            else:
                have_ref = False
        for i in range(first, last, direction):
            cx = xs[i]
            cy = ys[i]
            dx = cx - prev_x
            dy = cy - prev_y
            d2 = dx * dx + dy * dy
            err = d2 - link2
            if -skip2 <= err <= skip2:
                # length already exact; accept unless cone or walls object
                if (not have_ref or dx * upx + dy * upy >= cone_dot) and (
                    0.0 <= cx <= width and 0.0 <= cy <= height
                ):
                    prev_x, prev_y = cx, cy
                    upx = dx * inv_len
                    upy = dy * inv_len
                    have_ref = True
                    continue
                ux = dx * inv_len
                uy = dy * inv_len
            else:
                d = sqrt(d2)
                if d < 1e-15:
                    if have_ref:
                        ux, uy = upx, upy
                    else:
                        ux, uy = float(direction), 0.0
                else:
                    ux = dx / d
                    uy = dy / d
            # the candidate: the direction itself inside the cone, else the
            # minimal rotation to the nearer cone edge (when that is wall-
            # and disc-clean, the full candidate search picks it too)
            cone_out = have_ref and ux * upx + uy * upy < cos_lim
            if not cone_out:
                nx = prev_x + ux * link_len
                ny = prev_y + uy * link_len
            elif upx * uy - upy * ux >= 0.0:
                nx = prev_x + (upx * cos_lim - upy * sin_lim) * link_len
                ny = prev_y + (upy * cos_lim + upx * sin_lim) * link_len
            else:
                nx = prev_x + (upx * cos_lim + upy * sin_lim) * link_len
                ny = prev_y + (upy * cos_lim - upx * sin_lim) * link_len
            move = hypot(nx - cx, ny - cy)
            clean = 0.0 <= nx <= width and 0.0 <= ny <= height
            if clean:
                tested = (
                    near
                    if (move if move > max_move else max_move) + unwound
                    < cull_below
                    else obstacles
                )
                if tested:
                    # the trailing link midpoint is tested against each disc
                    # too. Disc tests here, in _place_constrained, _unwind and
                    # _sample_chain square with `** 2`, C pow(d, 2.0), which
                    # differs from d * d by one ulp on 2,583 of 3,000,000
                    # random differences (glibc 2.36): a swap may move bytes,
                    # and only the golden digests can show whether it did
                    mx = 0.5 * (prev_x + nx)
                    my = 0.5 * (prev_y + ny)
                    for ox, oy in tested:
                        if (
                            -reach < nx - ox < reach
                            and -reach < ny - oy < reach
                            and (nx - ox) ** 2 + (ny - oy) ** 2 < mu2
                        ) or (
                            -reach < mx - ox < reach
                            and -reach < my - oy < reach
                            and (mx - ox) ** 2 + (my - oy) ** 2 < mu2
                        ):
                            clean = False
                            break
            if clean:
                if cone_out:
                    cone_clamps += 1
            else:
                nx, ny, conflicted, clamped = _place_constrained(
                    prev_x, prev_y, ux, uy, have_ref, upx, upy,
                    cos_lim, sin_lim, link_len, width, height, obstacles,
                    mu,
                )
                if conflicted and have_ref:
                    # bend the placed chain nearer the pin so that this
                    # point has a clean placement
                    turn = _unwind(
                        xs, ys, pin, i, direction, nx, ny, upx, upy,
                        link_len, cos_lim, sin_lim, width, height,
                        obstacles, mu,
                    )
                    if turn is not None:
                        turned, nx, ny, clamped = turn
                        conflicted = 0
                        unwound += turned
                        prev_x = xs[i - direction]
                        prev_y = ys[i - direction]
                conflicts += conflicted
                cone_clamps += clamped
                move = hypot(nx - cx, ny - cy)
            if move > max_move:
                max_move = move
            xs[i] = nx
            ys[i] = ny
            upx = (nx - prev_x) * inv_len
            upy = (ny - prev_y) * inv_len
            have_ref = True
            prev_x, prev_y = nx, ny
    # an unwound point may move again later in the pass, so the bound on any
    # point's displacement adds every rotation to the largest placement move
    return max_move + unwound, conflicts, cone_clamps


_SNAP = 1e-13
_FEAS_WALL = 1e-12
_FEAS_CONE = 5e-10
_FEAS_OBS = 1e-9


def _disc_fits(
    px: float, py: float, ccx: float, ccy: float, radius: float, link_len: float
) -> list[tuple[float, float]]:
    """Unit directions from (px, py) whose endpoint lands exactly on the
    circle (center (ccx, ccy), radius); standard circle-circle intersection.
    """
    wx = ccx - px
    wy = ccy - py
    d2 = wx * wx + wy * wy
    d = math.sqrt(d2)
    if d < 1e-15 or d > link_len + radius or d < abs(link_len - radius):
        return []
    a = (d2 + link_len * link_len - radius * radius) / (2.0 * d)
    h2 = link_len * link_len - a * a
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    bx = wx / d
    by = wy / d
    inv = 1.0 / link_len
    return [
        ((a * bx - h * by) * inv, (a * by + h * bx) * inv),
        ((a * bx + h * by) * inv, (a * by - h * bx) * inv),
    ]


def _place_constrained(
    px: float,
    py: float,
    ux: float,
    uy: float,
    have_ref: bool,
    upx: float,
    upy: float,
    cos_lim: float,
    sin_lim: float,
    link_len: float,
    width: float,
    height: float,
    obstacles: list[tuple[float, float]],
    mu: float,
) -> tuple[float, float, int, int]:
    """Placement at distance link_len from (px, py) satisfying the bend
    cone, the workspace, and the obstacle discs, as close as possible to
    direction (ux, uy).

    The feasible direction set is an arc intersection whose boundary points
    are cone edges, wall fits, or disc tangencies, so searching those
    candidates (plus the desired direction itself) is exact. When nothing
    satisfies every constraint the cone wins and the leftover violation is
    reported as a conflict. Returns (x, y, conflicted, cone_clamped).
    """
    cone_violated = have_ref and ux * upx + uy * upy < cos_lim
    influence = link_len + 2.0 * mu
    near = [
        (ox, oy)
        for ox, oy in obstacles
        if abs(ox - px) < influence and abs(oy - py) < influence
    ]
    edges = [
        (upx * cos_lim - upy * sin_lim, upy * cos_lim + upx * sin_lim),
        (upx * cos_lim + upy * sin_lim, upy * cos_lim - upx * sin_lim),
    ] if have_ref else []
    candidates: list[tuple[float, float]] = [(ux, uy), *edges]
    lo_x = -px / link_len
    hi_x = (width - px) / link_len
    lo_y = -py / link_len
    hi_y = (height - py) / link_len
    if ux < lo_x or ux > hi_x:
        cxb = lo_x if ux < lo_x else hi_x
        # a bound beyond the unit circle is unsatisfiable by any direction
        if -1.0 <= cxb <= 1.0:
            mag2 = 1.0 - cxb * cxb
            mag = math.sqrt(mag2) if mag2 > 0.0 else 0.0
            candidates.append((cxb, mag))
            candidates.append((cxb, -mag))
    if uy < lo_y or uy > hi_y:
        cyb = lo_y if uy < lo_y else hi_y
        if -1.0 <= cyb <= 1.0:
            mag2 = 1.0 - cyb * cyb
            mag = math.sqrt(mag2) if mag2 > 0.0 else 0.0
            candidates.append((mag, cyb))
            candidates.append((-mag, cyb))
    for ox, oy in near:
        # endpoint disc and trailing-midpoint disc
        candidates.extend(_disc_fits(px, py, ox, oy, mu, link_len))
        candidates.extend(
            _disc_fits(px, py, 2.0 * ox - px, 2.0 * oy - py, 2.0 * mu, link_len)
        )

    mu_feas2 = (mu - _FEAS_OBS) * (mu - _FEAS_OBS)
    best = None
    best_dot = -2.0
    for wx, wy in candidates:
        if wx < lo_x - _FEAS_WALL or wx > hi_x + _FEAS_WALL:
            continue
        if wy < lo_y - _FEAS_WALL or wy > hi_y + _FEAS_WALL:
            continue
        if have_ref and wx * upx + wy * upy < cos_lim - _FEAS_CONE:
            continue
        ok = True
        if near:
            ex = px + wx * link_len
            ey = py + wy * link_len
            mx = 0.5 * (px + ex)
            my = 0.5 * (py + ey)
            for ox, oy in near:
                if (ex - ox) ** 2 + (ey - oy) ** 2 < mu_feas2:
                    ok = False
                    break
                if (mx - ox) ** 2 + (my - oy) ** 2 < mu_feas2:
                    ok = False
                    break
        if not ok:
            continue
        dot = wx * ux + wy * uy
        if dot > best_dot:
            best_dot = dot
            best = (wx, wy)
    conflicted = 0
    if best is None:
        conflicted = 1
        # the cone wins; everything else becomes slack. Among the in-cone
        # fallbacks prefer the one that stays closest to the workspace so a
        # pressed chain heads back inside instead of marching out.
        if have_ref:
            fallbacks = edges if cone_violated else [*edges, (ux, uy)]
            best_key = None
            for wx, wy in fallbacks:
                ex = px + wx * link_len
                ey = py + wy * link_len
                out = 0.0
                if ex < 0.0:
                    out -= ex
                elif ex > width:
                    out += ex - width
                if ey < 0.0:
                    out -= ey
                elif ey > height:
                    out += ey - height
                for ox, oy in near:
                    d = math.hypot(ex - ox, ey - oy)
                    if d < mu:
                        out += mu - d
                    d = math.hypot(0.5 * (px + ex) - ox, 0.5 * (py + ey) - oy)
                    if d < mu:
                        out += mu - d
                key = (out, -(wx * ux + wy * uy))
                if best_key is None or key < best_key:
                    best_key = key
                    best = (wx, wy)
        else:
            best = (ux, uy)
    nx = px + best[0] * link_len
    ny = py + best[1] * link_len
    # snap hairline overhangs from rounding onto the bound
    if -_SNAP <= nx < 0.0:
        nx = 0.0
    elif width < nx <= width + _SNAP:
        nx = width
    if -_SNAP <= ny < 0.0:
        ny = 0.0
    elif height < ny <= height + _SNAP:
        ny = height
    return nx, ny, conflicted, 1 if cone_violated else 0


# turns tried at each joint after the cone excess, smallest first (radians)
_TURNS = (0.05, 0.1, 0.2, 0.4)
_TURN_MIN = 1e-12
_TURN_MARGIN = 1e-12


def _unwind(
    xs: list[float],
    ys: list[float],
    pin: int,
    i: int,
    direction: int,
    fx: float,
    fy: float,
    upx: float,
    upy: float,
    link_len: float,
    cos_lim: float,
    sin_lim: float,
    width: float,
    height: float,
    obstacles: list[tuple[float, float]],
    mu: float,
) -> tuple[float, float, float, int] | None:
    """Resolve a placement conflict at point i by bending the chain between
    the pin and point i.

    Point i has no wall- and disc-clean placement inside the cone of joint
    a = i - direction, whose previous link has unit direction (upx, upy);
    (fx, fy) is the cone-winning fallback. Turning the placed points beyond
    a joint j, between the pin and a, rigidly about point j changes only the
    bend at j, and both turns the cone at a and moves a. Joints are tried
    nearest first. At each, the turns tried are the excess beyond the cone
    of the clean direction nearest the fallback, then _TURNS in both senses,
    each capped by the joint's bend slack. The first turn that keeps every
    turned point and link midpoint clean and leaves point i a clean
    placement inside the cone is made.

    Returns (largest displacement of a turned point, placement of point i,
    its cone clamp flag), or None when no turn was made.
    """
    a = i - direction
    if a == pin:
        return None
    inv = 1.0 / link_len
    limit = math.atan2(sin_lim, cos_lim)
    ax = xs[a]
    ay = ys[a]
    cx, cy, blocked, _ = _place_constrained(
        ax, ay, (fx - ax) * inv, (fy - ay) * inv, False, 0.0, 0.0,
        cos_lim, sin_lim, link_len, width, height, obstacles, mu,
    )
    wanted: list[tuple[float, float]] = []
    if not blocked:
        wx = (cx - ax) * inv
        wy = (cy - ay) * inv
        cross = upx * wy - upy * wx
        excess = math.atan2(abs(cross), upx * wx + upy * wy) - limit
        if excess > 0.0:
            wanted.append((1.0 if cross > 0.0 else -1.0, excess))
    for turn in _TURNS:
        wanted.append((1.0, turn))
        wanted.append((-1.0, turn))
    mu_feas2 = (mu - _FEAS_OBS) * (mu - _FEAS_OBS)
    tx = xs[i]
    ty = ys[i]
    j = a
    while j != pin:
        j -= direction
        jx = xs[j]
        jy = ys[j]
        # signed bend at j; the pin's reference is the other side's link
        k = j - direction
        have_bend = 0 <= k < len(xs)
        if have_bend:
            rx = jx - xs[k]
            ry = jy - ys[k]
            vx = xs[j + direction] - jx
            vy = ys[j + direction] - jy
            bend = math.atan2(rx * vy - ry * vx, rx * vx + ry * vy)
        span = range(j + direction, a + direction, direction)
        for sense, theta in wanted:
            if have_bend:
                theta = min(theta, limit - sense * bend - _TURN_MARGIN)
                if theta <= _TURN_MIN:
                    continue
            c = math.cos(theta)
            s = sense * math.sin(theta)
            turned = []
            lx, ly = jx, jy
            for p in span:
                rx = xs[p] - jx
                ry = ys[p] - jy
                nx = jx + c * rx - s * ry
                ny = jy + s * rx + c * ry
                if not (0.0 <= nx <= width and 0.0 <= ny <= height):
                    break
                mx = 0.5 * (lx + nx)
                my = 0.5 * (ly + ny)
                if any(
                    (nx - ox) ** 2 + (ny - oy) ** 2 < mu_feas2
                    or (mx - ox) ** 2 + (my - oy) ** 2 < mu_feas2
                    for ox, oy in obstacles
                ):
                    break
                turned.append((nx, ny))
                lx, ly = nx, ny
            else:
                # lx, ly is the turned point a; its previous link is the cone
                # reference for point i
                bx, by = turned[-2] if len(turned) > 1 else (jx, jy)
                ux = (lx - bx) * inv
                uy = (ly - by) * inv
                dx = tx - lx
                dy = ty - ly
                d = math.sqrt(dx * dx + dy * dy)
                wx, wy = (dx / d, dy / d) if d > 1e-15 else (ux, uy)
                nx, ny, conflicted, clamped = _place_constrained(
                    lx, ly, wx, wy, True, ux, uy, cos_lim, sin_lim, link_len,
                    width, height, obstacles, mu,
                )
                if conflicted:
                    continue
                moved = 0.0
                for p, (px, py) in zip(span, turned):
                    moved = max(moved, math.hypot(px - xs[p], py - ys[p]))
                    xs[p] = px
                    ys[p] = py
                return moved, nx, ny, clamped
    return None


def _exact_rebuild(xs: list[float], ys: list[float], pin: int, link_len: float) -> None:
    """Rebuild the chain outward from the pin with exact link lengths along
    the current link directions; bend angles are preserved exactly."""
    m = len(xs)
    dirs_x = [0.0] * (m - 1)
    dirs_y = [0.0] * (m - 1)
    last_dx, last_dy = 1.0, 0.0
    for i in range(m - 1):
        dx = xs[i + 1] - xs[i]
        dy = ys[i + 1] - ys[i]
        d = math.sqrt(dx * dx + dy * dy)
        if d < 1e-15:
            dx, dy = last_dx, last_dy
        else:
            dx /= d
            dy /= d
            last_dx, last_dy = dx, dy
        dirs_x[i] = dx
        dirs_y[i] = dy
    for i in range(pin + 1, m):
        xs[i] = xs[i - 1] + dirs_x[i - 1] * link_len
        ys[i] = ys[i - 1] + dirs_y[i - 1] * link_len
    for i in range(pin - 1, -1, -1):
        xs[i] = xs[i + 1] - dirs_x[i] * link_len
        ys[i] = ys[i + 1] - dirs_y[i] * link_len


# Environment generation


def generate_env(config: TaskConfig, seed: int) -> EnvState:
    """Sample obstacles and a valid chain, rejecting goal-space initial
    states so the task is never already solved; deterministic in seed."""
    rng = make_rng(seed)
    rejections = 0
    mu = config.obstacle_radius
    width = config.workspace_width
    height = config.workspace_height

    centers: list[tuple[float, float]] = []
    while len(centers) < config.obstacle_count:
        ox = rng.uniform(mu, width - mu)
        oy = rng.uniform(mu, height - mu)
        if all(math.hypot(ox - cx, oy - cy) >= 3.0 * mu for cx, cy in centers):
            centers.append((ox, oy))
        else:
            rejections += 1
            if rejections >= GENERATION_BUDGET:
                raise GenerationError(
                    f"obstacle placement failed after {GENERATION_BUDGET} rejections"
                )
    o = np.asarray(centers, dtype=np.float64).reshape(-1, 2)

    while True:
        lam = rng.uniform(*config.dlo_length_range)
        chain = _sample_chain(rng, lam, config, centers)
        if chain is not None:
            state = EnvState(chain, o)
            if not goal_reached(state, config):
                return state
        rejections += 1
        if rejections >= GENERATION_BUDGET:
            raise GenerationError(
                f"chain placement failed after {GENERATION_BUDGET} rejections"
            )


def _sample_chain(
    rng: np.random.Generator,
    lam: float,
    config: TaskConfig,
    centers: Sequence[tuple[float, float]],
) -> np.ndarray | None:
    """One bounded-random-walk attempt; None when it leaves the workspace or
    penetrates an obstacle."""
    m = config.keypoint_count
    link_len = lam / (m - 1)
    mu = config.obstacle_radius
    width = config.workspace_width
    height = config.workspace_height

    x = rng.uniform(0.0, width)
    y = rng.uniform(0.0, height)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    turns = rng.uniform(-config.joint_limit, config.joint_limit, size=m - 2)

    xs = [x]
    ys = [y]
    for i in range(m - 1):
        if i > 0:
            heading += turns[i - 1]
        nx = xs[-1] + link_len * math.cos(heading)
        ny = ys[-1] + link_len * math.sin(heading)
        if not (0.0 <= nx <= width and 0.0 <= ny <= height):
            return None
        xs.append(nx)
        ys.append(ny)

    mu2 = mu * mu
    for ox, oy in centers:
        for i in range(m):
            if (xs[i] - ox) ** 2 + (ys[i] - oy) ** 2 < mu2:
                return None
        for i in range(m - 1):
            mx = 0.5 * (xs[i] + xs[i + 1])
            my = 0.5 * (ys[i] + ys[i + 1])
            if (mx - ox) ** 2 + (my - oy) ** 2 < mu2:
                return None
    return np.column_stack([xs, ys])
