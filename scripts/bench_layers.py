#!/usr/bin/env python3
"""Layer benchmark: time the executor and the layers of one training epoch
in fresh processes that alternate between source trees, and digest what
each group of layers outputs.

    python scripts/bench_layers.py --dataset artifacts/dataset.jsonl
    python scripts/bench_layers.py --src ../parent/src --src src --layers executor

--layers picks one group (default: both). `executor` replays a corpus of
executes recorded from fixed seeds with the first tree (every `execute` of a
small `explore.collect` run, and chains of arbitrary drags at obstacle
radius 0.04 and 0.06) and digests every output state, its ExecStats and
`quantized().to_obj()`. `train` times dataset load, the encoder's passes,
an Adam step, the probe and one epoch of each model on --dataset (default:
the perfbench fixture of the first tree's checkout) and digests both models
after one epoch and the encoder's probe losses.

Children run one OpenBLAS thread. Per layer and tree it prints the median
and min ms over every repeat of every process, and the median tracemalloc
peak of one more call on inputs made untraced (not for the executor, which
tracemalloc slows about fifty-fold). The script exits 1, naming each group
whose digest differs between trees or runs, and 2 after the stderr of a
failing child.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from functools import partial
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 0  # the executor corpus; training runs seed 1
EPISODES = 10  # kept episodes of the recorded collect run, goal pool of 2
ENVS = 10  # arbitrary-drag environments per radius, 15 drags each
RADII = (0.04, 0.06)


def time_layers(layers: dict, repeats: int, traced: bool = True) -> dict:
    """{layer: {"ms": [...], "peak_mb": float or None}} for layers given as
    (an untimed step that makes the call's argument, the call)."""
    out = {}
    for name, (prepare, call) in layers.items():
        ms = []
        for _ in range(repeats):
            arg = prepare()
            t0 = perf_counter()
            call(arg)
            ms.append((perf_counter() - t0) * 1e3)
        out[name] = {"ms": ms, "peak_mb": None}
        if traced:
            arg = prepare()
            tracemalloc.start()
            try:
                call(arg)
                out[name]["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
    return out


def record(path: str) -> None:
    """Write the executor corpus, one JSON line per execute: obstacle
    radius, input keypoints and obstacles, action (floats written exactly)."""
    from slackline import explore
    from slackline.config import TaskConfig
    from slackline.harness import sweep_config
    from slackline.seeding import make_rng
    from slackline.simulator import execute, generate_env

    rows = []

    def run(radius, state, action, config):
        rows.append((radius, state, action))
        return execute(state, action, config)

    config = TaskConfig()
    explore.execute = partial(run, config.obstacle_radius)
    explore.collect(config, episodes=EPISODES, seed=SEED, pool_size=2)
    explore.execute = execute
    for radius in RADII:
        config = sweep_config(TaskConfig(), "obstacle_radius", radius)
        for env in range(ENVS):
            state = generate_env(config, SEED + env)
            rng = make_rng(SEED, "bench-executor", env)
            for _ in range(15):
                action = explore._arbitrary_action(state, config, rng)
                if action is None:
                    break
                state = run(radius, state, action, config)
    with open(path, "w") as f:
        for radius, state, action in rows:
            f.write(json.dumps({
                "radius": radius,
                "q": state.q.tolist(),
                "o": state.o.tolist(),
                "drags": [[pp.arm_id, pp.pick_index, list(pp.pick), list(pp.place)]
                          for pp in action.sequences()],
            }) + "\n")


def executor(path: str, repeats: str) -> dict:
    """Time replays of the corpus, then replay it once more to count
    projection passes and digest the outputs and their quantized form."""
    import numpy as np

    from slackline import simulator
    from slackline.config import TaskConfig
    from slackline.harness import sweep_config
    from slackline.simulator import ActionPair, EnvState, PickPlace

    configs = {r: sweep_config(TaskConfig(), "obstacle_radius", r)
               for r in (TaskConfig().obstacle_radius, *RADII)}
    corpus = []
    with open(path) as f:
        for line in f:
            row = json.loads(line)
            drags = [PickPlace(a, k, tuple(pick), tuple(place))
                     for a, k, pick, place in row["drags"]]
            corpus.append((EnvState(np.array(row["q"]), np.array(row["o"])),
                           ActionPair(*drags), configs[row["radius"]]))
    execute = simulator.execute_with_stats

    def replay(rows):
        for state, action, config in rows:
            execute(state, action, config)

    layers = time_layers({"execute": (lambda: corpus, replay)}, int(repeats), False)
    layers["execute"]["ms"] = [v / len(corpus) for v in layers["execute"]["ms"]]

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
    return {"layers": layers, "digest": digest.hexdigest()[:16],
            "about": f"{len(corpus)} executes, {drags} drags, "
                     f"{passes / drags:.2f} passes/drag"}


def train(path: str, repeats: str) -> dict:
    """Time the training layers on the dataset at `path`, then digest one
    epoch of both models."""
    import numpy as np

    from slackline import encoder
    from slackline.config import TrainConfig
    from slackline.encoder import (Adam, _grad_step, _group_rows, _probe_loss,
                                   init_params, mlp_backward, mlp_forward,
                                   model_input, model_layout, params_bytes)
    from slackline.explore import load_dataset
    from slackline.planner import train_autoencoder
    from slackline.seeding import make_rng

    cfg = TrainConfig(epochs=1, seed=1)
    dataset = load_dataset(path)
    workspace, input_dim = model_layout(dataset.config)
    params = init_params(input_dim, cfg.embed_dim, workspace, cfg.seed)
    rows, ep_ids, steps = dataset.state_table()
    x_all = model_input(params, rows)
    starts = np.flatnonzero(steps == 0).tolist()
    ep_ranges = list(zip(starts, starts[1:] + [len(rows)]))
    rng = make_rng(cfg.seed, "bench-train")
    anchors = rng.permutation(len(rows))
    batch = _group_rows(rng, anchors[:cfg.batch_anchors], ep_ids, ep_ranges,
                        cfg.negatives)
    x = x_all[batch.ravel()]
    probe_rows = _group_rows(rng, anchors[:2048], ep_ids, ep_ranges, cfg.negatives)
    _, grad_w, grad_b = _grad_step(params, x, len(batch), cfg.negatives)
    optimizer = Adam([a.copy() for a in params.weights + params.biases],
                     cfg.learning_rate)

    def forward():
        acts = [x]
        return mlp_forward(params, x, acts=acts), acts

    layers = time_layers({
        "load_dataset": (lambda: path, load_dataset),
        "state_table": (lambda: dataset, lambda ds: ds.state_table()),
        "grad_step": (lambda: x, lambda b: _grad_step(
            params, b, len(batch), cfg.negatives)),
        "mlp_forward": (lambda: [x], lambda acts: mlp_forward(params, x, acts=acts)),
        "mlp_backward": (forward, lambda out: mlp_backward(params, out[1], out[0])),
        "adam_step": (lambda: grad_w + grad_b, optimizer.step),
        "probe_loss": (lambda: probe_rows, lambda r: _probe_loss(params, x_all, r)),
        "train_epoch": (lambda: dataset, lambda ds: encoder.train(ds, cfg)),
        "train_autoencoder_epoch": (lambda: dataset,
                                    lambda ds: train_autoencoder(ds, cfg)),
    }, int(repeats))

    enc = encoder.train(dataset, cfg)
    ae = train_autoencoder(dataset, cfg)
    digest = hashlib.sha256(params_bytes(enc.params) + params_bytes(ae.params))
    digest.update(json.dumps([v.hex() for v in enc.epoch_losses]).encode())
    return {"layers": layers, "digest": digest.hexdigest()[:16],
            "about": f"{len(rows)} states"}


def fixture(src: str) -> str:
    """The dataset of the perfbench fixture that `src`'s checkout keeps."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from stats import tree_digest
    from workloads import SCALES, fixture_key

    key = fixture_key(tree_digest(src), SCALES["full"])
    return os.path.join(os.path.dirname(src), ".bench_build", "perfbench",
                        "fixtures", key, "dataset.jsonl")


JOBS = {"record": record, "executor": executor, "train": train, "fixture": fixture}


def child(src: str, job: str, *args: str):
    """JOBS[job](*args), run on `src` in a fresh process with one OpenBLAS
    thread; a failing child's stderr passes through, and the script exits 2."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--child",
                           job, *args], env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        print(f"{job} failed on {src} (exit {done.returncode})", file=sys.stderr)
        sys.exit(2)
    return json.loads(done.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append",
                        help="a source tree to measure (repeatable; default: src/)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="fresh processes per tree, alternating (default 3)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed calls per layer per process (default 3)")
    parser.add_argument("--layers", choices=("executor", "train"),
                        help="one group of layers (default: both)")
    parser.add_argument("--corpus", help="executor corpus to reuse, or to keep")
    parser.add_argument("--dataset", help="dataset (default: the perfbench fixture)")
    parser.add_argument("--child", nargs="+", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        job, *rest = args.child
        return print(json.dumps(JOBS[job](*rest)))

    srcs = [os.path.abspath(s) for s in args.src or [os.path.join(ROOT, "src")]]
    groups = [args.layers] if args.layers else ["executor", "train"]
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {"executor": args.corpus or os.path.join(tmp, "corpus.jsonl"),
                  "train": args.dataset}
        if "executor" in groups and not os.path.exists(inputs["executor"]):
            child(srcs[0], "record", inputs["executor"])
        if "train" in groups and not inputs["train"]:
            inputs["train"] = child(srcs[0], "fixture", srcs[0])
        runs = {group: [[] for _ in srcs] for group in groups}
        order = list(range(len(srcs)))
        for pair in range(args.pairs):
            for i in order if pair % 2 == 0 else order[::-1]:
                for group in groups:
                    runs[group][i].append(child(srcs[i], group, inputs[group],
                                                str(args.repeats)))
    for group in groups:
        for src, tree in zip(srcs, runs[group]):
            print(f"{src} {group}: {tree[0]['about']}, one BLAS thread")
            for name in tree[0]["layers"]:
                ms = [v for run in tree for v in run["layers"][name]["ms"]]
                peaks = [run["layers"][name]["peak_mb"] for run in tree]
                peak = "      -" if None in peaks else f"{statistics.median(peaks):7.2f}"
                print(f"  {name:24} median {statistics.median(ms):9.3f} ms  "
                      f"min {min(ms):9.3f} ms  peak {peak} MB")
            print(f"  {group} digest {tree[0]['digest']}")
    differ = [group for group in groups
              if len({run["digest"] for tree in runs[group] for run in tree}) > 1]
    if differ:
        sys.exit(f"outputs differ between trees or runs: {', '.join(differ)}")


if __name__ == "__main__":
    main()
