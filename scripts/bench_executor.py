#!/usr/bin/env python3
"""Executor microbenchmark: replay a fixed corpus of executes and time them.

The corpus is recorded once, from fixed seeds: every `execute` of a small
`explore.collect` run (its goal pool and its guided rollouts) and chains of
arbitrary drags at obstacle radius 0.04 and 0.06. It is then replayed in
fresh processes, alternating between the source trees given with --src, and
each tree gets one line: the min and median time per execute over all
replays, the projection passes per drag, and a digest of every output state,
its ExecStats and its quantized file form (`quantized().to_obj()`). Trees
with equal digests executed and quantized the corpus identically, bit for
bit. Timing covers `execute_with_stats` only.

    python scripts/bench_executor.py                          # this checkout
    python scripts/bench_executor.py --src ../parent/src --src src --pairs 5

The corpus is recorded with the first tree. Pass --corpus FILE to keep it
(or to reuse a kept one). BLAS plays no part; one core is used at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0
EPISODES = 10  # kept episodes of the recorded collect run, goal pool of 2
ENVS = 10  # arbitrary-drag environments per radius, 15 drags each
RADII = (0.04, 0.06)


def record(path: str) -> None:
    """Write the corpus, one JSON line per execute: obstacle radius, input
    keypoints and obstacles, action (floats written exactly)."""
    from slackline import explore
    from slackline.config import TaskConfig
    from slackline.harness import sweep_config
    from slackline.seeding import make_rng
    from slackline.simulator import execute, generate_env

    rows = []

    def recorded(radius):
        def run(state, action, config):
            rows.append((radius, state, action))
            return execute(state, action, config)
        return run

    config = TaskConfig()
    explore.execute = recorded(config.obstacle_radius)
    explore.collect(config, episodes=EPISODES, seed=SEED, pool_size=2)
    explore.execute = execute
    for radius in RADII:
        config = sweep_config(TaskConfig(), "obstacle_radius", radius)
        run = recorded(radius)
        for env in range(ENVS):
            state = generate_env(config, SEED + env)
            rng = make_rng(SEED, "bench-executor", env)
            for _ in range(15):
                action = explore._arbitrary_action(state, config, rng)
                if action is None:
                    break
                state = run(state, action, config)
    with open(path, "w") as f:
        for radius, state, action in rows:
            f.write(json.dumps({
                "radius": radius,
                "q": state.q.tolist(),
                "o": state.o.tolist(),
                "drags": [[pp.arm_id, pp.pick_index, list(pp.pick), list(pp.place)]
                          for pp in action.sequences()],
            }) + "\n")


def replay(path: str, rounds: int) -> dict:
    """Time `rounds` replays of the corpus, then replay it once more to count
    projection passes and digest the outputs and their quantized form."""
    import numpy as np

    from slackline import simulator
    from slackline.config import TaskConfig
    from slackline.harness import sweep_config
    from slackline.simulator import ActionPair, EnvState, PickPlace

    corpus = []
    configs = {}
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            radius = row["radius"]
            if radius not in configs:
                configs[radius] = sweep_config(TaskConfig(), "obstacle_radius", radius)
            drags = [PickPlace(a, k, tuple(pick), tuple(place))
                     for a, k, pick, place in row["drags"]]
            corpus.append((EnvState(np.array(row["q"]), np.array(row["o"])),
                           ActionPair(*drags), configs[radius]))
    execute = simulator.execute_with_stats
    seconds = []
    for _ in range(rounds):
        t0 = perf_counter()
        for state, action, config in corpus:
            execute(state, action, config)
        seconds.append(perf_counter() - t0)

    passes = 0
    inner = simulator._constrained_pass

    def counted(*args):
        nonlocal passes
        passes += 1
        return inner(*args)

    simulator._constrained_pass = counted
    digest = hashlib.sha256()
    drags = 0
    for state, action, config in corpus:
        out, stats = execute(state, action, config)
        drags += 1 if action.follower is None else 2
        digest.update(json.dumps([
            [x.hex() for x in out.q.ravel().tolist()],
            [stats.joint_clamps, stats.obstacle_pushes,
             stats.workspace_clamps, stats.placement_conflicts],
            out.quantized().to_obj(),
        ]).encode())
    simulator._constrained_pass = inner
    return {"executes": len(corpus), "drags": drags, "passes": passes,
            "seconds": seconds, "digest": digest.hexdigest()[:16]}


def child(mode: str, src: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, os.path.abspath(__file__), mode, *args],
                          env=env, check=True, capture_output=True, text=True)
    return done.stdout


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append",
                        help="a source tree to measure (repeatable; default: src/)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="fresh processes per tree, alternating (default 3)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timed replays per process (default 3)")
    parser.add_argument("--corpus", help="corpus file to reuse, or to keep")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--replay", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.record:
        record(args.record)
        return
    if args.replay:
        print(json.dumps(replay(args.replay, args.rounds)))
        return

    srcs = args.src or [os.path.join(ROOT, "src")]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = args.corpus or os.path.join(tmp, "corpus.jsonl")
        if not os.path.exists(corpus):
            child("--record", srcs[0], corpus)
        runs: dict[str, list[dict]] = {src: [] for src in srcs}
        for pair in range(args.pairs):
            order = srcs if pair % 2 == 0 else srcs[::-1]
            for src in order:
                runs[src].append(json.loads(
                    child("--replay", src, corpus, "--rounds", str(args.rounds))))
    digests = set()
    for src in srcs:
        first = runs[src][0]
        per_execute = [s * 1e3 / first["executes"]
                       for run in runs[src] for s in run["seconds"]]
        digests.update(run["digest"] for run in runs[src])
        print(f"{src}: {first['executes']} executes, {first['drags']} drags, "
              f"ms/execute min {min(per_execute):.3f} "
              f"median {statistics.median(per_execute):.3f}, "
              f"passes/drag {first['passes'] / first['drags']:.2f}, "
              f"digest {first['digest']}")
    if len(digests) > 1:
        print("outputs differ between trees or runs")
        sys.exit(1)


if __name__ == "__main__":
    main()
