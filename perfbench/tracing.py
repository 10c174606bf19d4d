"""Span tracing from outside the package.

The modules import their collaborators by name (`policy.execute`,
`explore.execute`, `controller.sequence_feasible_xy`, ...), so a timing
wrapper has to be bound where a function is called, not where it is defined.
`instrument` rebinds every traced function at its call sites and restores
the originals on exit.

A span records a name, start, end, parent span, the episode or environment
it belongs to, and its self time (duration minus the time of the spans it
encloses). Spans stay in memory. Inside a fork-pool worker the spans of an
episode ride back to the parent as an attribute of the episode's result,
and the parent merges them when `harness.evaluate` returns.

Sub-microsecond geometry predicates are counted, not spanned: they add their
call count and wrapped time to counters, and their time still leaves the
self time of the enclosing span.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from slackline import controller, encoder, explore, harness, planner, policy, simulator

# Executor contract, as the acceptance gate states it.
LINK_TOL = 1e-9
BEND_TOL = 1e-9
PENETRATION_TOL = 1e-3
# contract violations kept with their details; the count is always exact
MAX_VIOLATION_DETAILS = 20

_TRACE_ATTR = "bench_trace"


class Tracer:
    def __init__(self) -> None:
        self._pid = os.getpid()
        self.in_worker = False
        self._next = 0
        self.unit: object = None
        self._reset()

    def _reset(self) -> None:
        self.spans: list[tuple] = []  # (id, name, start, end, parent, unit, self_s)
        self.counts: dict[str, float] = defaultdict(float)
        self.violations: list[str] = []
        self._stack: list[list] = []  # [id, child_s, name, parent, start]

    def _here(self) -> None:
        pid = os.getpid()
        if pid != self._pid:  # first traced call inside a forked pool worker
            self._pid = pid
            self.in_worker = True
            self._reset()

    def open(self, name: str) -> list:
        self._here()
        self._next += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [(self._pid << 32) | self._next, 0.0, name, parent, perf_counter()]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        sid, child_s, name, parent, start = frame
        dur = end - start
        self.spans.append((sid, name, start, end, parent, self.unit, dur - child_s))
        if self._stack:
            self._stack[-1][1] += dur

    def charge(self, seconds: float) -> None:
        """Time the tracer spent inside an open span, kept out of its self
        time."""
        self.counts["trace.check_s"] += seconds
        if self._stack:
            self._stack[-1][1] += seconds

    def in_span(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    def drain(self) -> tuple:
        out = (self.spans, dict(self.counts), self.violations)
        self._reset()
        return out

    def merge(self, payload: tuple) -> None:
        spans, counts, violations = payload
        self.spans.extend(spans)
        for key, value in counts.items():
            if ".max_" in key:
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value
        self.violations.extend(violations)

    # wrappers

    def span(self, name: str, fn: Callable, unit_arg: int | None = None,
             sticky: bool = False) -> Callable:
        """Wrap fn in a span. With unit_arg, the positional argument at that
        index names the unit (episode or environment) of the spans that
        follow; a sticky unit outlives the call."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            previous = self.unit
            if unit_arg is not None and len(args) > unit_arg:
                self.unit = (name, args[unit_arg])
            frame = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(frame)
                if not sticky:
                    self.unit = previous

        return wrapped

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = name + ".calls"
        busy = name + ".busy_s"

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._here()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self.counts[calls] += 1
                self.counts[busy] += dt
                if self._stack:
                    self._stack[-1][1] += dt

        return wrapped

    def executor(self, execute_with_stats: Callable) -> Callable:
        """`execute` through the public `execute_with_stats`, recording the
        projection statistics and checking the contract of every action."""

        def execute(state, action, config):
            frame = self.open("simulator.execute")
            try:
                new_state, stats = execute_with_stats(state, action, config)
            finally:
                self.close(frame)
            t0 = perf_counter()
            drags = 1 if action.follower is None else 2
            c = self.counts
            c["simulator.drags"] += drags
            c["simulator.obstacle_pushes"] += stats.obstacle_pushes
            c["simulator.placement_conflicts"] += stats.placement_conflicts
            c["simulator.joint_clamps"] += stats.joint_clamps
            c["simulator.workspace_clamps"] += stats.workspace_clamps
            if self.in_span("explore.build_goal_pool"):
                c["explore.goal_pool_drags"] += drags
            link, bend, pen = contract_excess(state, new_state, config)
            c["simulator.max_penetration_m"] = max(
                c["simulator.max_penetration_m"], pen
            )
            shape = link > LINK_TOL or bend > BEND_TOL
            if shape or pen > PENETRATION_TOL:
                c["simulator.contract_violations"] += 1
                c["simulator.shape_violations"] += shape
                if len(self.violations) < MAX_VIOLATION_DETAILS:
                    self.violations.append(
                        f"unit {self.unit}: link error {link:.2e}, bend excess "
                        f"{bend:.2e}, penetration {pen * 1e3:.3f} mm"
                    )
            self.charge(perf_counter() - t0)
            return new_state

        return execute

    def episode_runner(self, run_episode: Callable) -> Callable:
        """`run_episode` in a span; inside a pool worker the spans gathered
        since the last episode leave with the result."""
        inner = self.span("policy.run_episode", run_episode, unit_arg=4)

        @functools.wraps(run_episode)
        def wrapped(*args, **kwargs):
            result = inner(*args, **kwargs)
            if self.in_worker:
                setattr(result, _TRACE_ATTR, self.drain())
            return result

        return wrapped

    def evaluator(self, evaluate: Callable) -> Callable:
        inner = self.span("harness.evaluate", evaluate)

        @functools.wraps(evaluate)
        def wrapped(*args, **kwargs):
            table, per_cell = inner(*args, **kwargs)
            for results in per_cell:
                for r in results:
                    payload = r.__dict__.pop(_TRACE_ATTR, None)
                    if payload is not None:
                        self.merge(payload)
            return table, per_cell

        return wrapped


def write_spans(tracer: Tracer, path: str) -> None:
    """All spans as JSON lines, written once at the end of a traced run."""
    with open(path, "w", encoding="utf-8") as fh:
        for sid, name, start, end, parent, unit, self_s in tracer.spans:
            fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                 "parent": parent, "unit": unit, "self_s": self_s}) + "\n")


def contract_excess(before, after, config) -> tuple[float, float, float]:
    """(worst link-length error against the input chain's link length,
    worst bend beyond the joint limit, worst obstacle penetration of a
    keypoint or link midpoint) for one executed action."""
    q = after.q
    d = np.diff(q, axis=0)
    link = float(np.abs(np.hypot(d[:, 0], d[:, 1]) - before.link_length()).max())
    a = d[:-1]
    b = d[1:]
    bends = np.abs(np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0],
                              np.einsum("ij,ij->i", a, b)))
    bend = float(bends.max()) - config.joint_limit
    pen = 0.0
    if len(after.o):
        pts = np.vstack([q, 0.5 * (q[:-1] + q[1:])])
        dist = np.hypot(pts[:, None, 0] - after.o[None, :, 0],
                        pts[:, None, 1] - after.o[None, :, 1])
        pen = max(0.0, config.obstacle_radius - float(dist.min()))
    return link, bend, pen


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind every traced function at its call sites for the duration."""
    plan_classes = (
        planner.ContrastivePlanner, planner.FixedPlanner, planner.RandomPlanner,
        planner.TemplatePlanner, planner.AutoencoderPlanner,
    )
    control_classes = (
        controller.LeaderFollower, controller.OnlyLeader, controller.RandomControl,
    )
    execute = tracer.executor(simulator.execute_with_stats)
    feasible = tracer.counted("geometry.sequence_feasible",
                              controller.sequence_feasible_xy)
    candidates = tracer.span("controller.feasible_correspondence_actions",
                             controller.feasible_correspondence_actions)
    encode_batch = tracer.span("encoder.encode_batch", encoder.encode_batch)
    patches = [
        (policy, "execute", execute),
        (explore, "execute", execute),
        (explore, "generate_env",
         tracer.span("simulator.generate_env", explore.generate_env,
                     unit_arg=1, sticky=True)),
        (harness, "generate_env",
         tracer.span("simulator.generate_env", harness.generate_env)),
        (controller, "sequence_feasible_xy", feasible),
        (explore, "sequence_feasible_xy", feasible),
        (controller, "feasible_correspondence_actions", candidates),
        (explore, "feasible_correspondence_actions", candidates),
        (encoder, "encode_batch", encode_batch),
        (planner, "encode_batch", encode_batch),
        (encoder, "train", tracer.span("encoder.train", encoder.train)),
        (planner, "train_autoencoder",
         tracer.span("planner.train_autoencoder", planner.train_autoencoder)),
        (harness, "build_index",
         tracer.span("planner.build_index", harness.build_index)),
        (explore, "build_goal_pool",
         tracer.span("explore.build_goal_pool", explore.build_goal_pool)),
        (explore, "collect", tracer.span("explore.collect", explore.collect)),
        (explore, "save_dataset",
         tracer.span("explore.save_dataset", explore.save_dataset)),
        (explore, "load_dataset",
         tracer.span("explore.load_dataset", explore.load_dataset)),
        (harness, "run_episode", tracer.episode_runner(harness.run_episode)),
        (harness, "evaluate", tracer.evaluator(harness.evaluate)),
    ]
    for cls in plan_classes:
        patches.append(
            (cls, "plan", tracer.span(f"planner.{cls.name}.plan", cls.plan))
        )
    for cls in control_classes:
        patches.append(
            (cls, "select", tracer.span(f"controller.{cls.name}.select", cls.select))
        )
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapped in patches:
            setattr(owner, attr, wrapped)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: calls, busy seconds and the list of durations."""
    out: dict[str, dict] = {}
    for _, name, start, end, _, _, _ in tracer.spans:
        entry = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["busy_s"] += end - start
        entry["durations"].append(end - start)
    for key, value in tracer.counts.items():
        for field in ("calls", "busy_s"):
            if key.endswith("." + field):
                entry = out.setdefault(key[: -len(field) - 1],
                                       {"calls": 0, "busy_s": 0.0, "durations": []})
                entry[field] += value
    return out


def self_times(tracer: Tracer) -> dict[str, float]:
    """Self seconds per layer, the layer being the first component of the
    span name; counted calls add their whole wrapped time."""
    out: dict[str, float] = defaultdict(float)
    for _, name, _, _, _, _, self_s in tracer.spans:
        out[name.split(".", 1)[0]] += self_s
    for key, value in tracer.counts.items():
        if key.endswith(".busy_s"):
            out[key.split(".", 1)[0]] += value
    return dict(out)

