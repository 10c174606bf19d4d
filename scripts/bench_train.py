#!/usr/bin/env python3
"""Training microbenchmark: time and trace the layers one training epoch runs.

For each source tree given with --src, in fresh processes that alternate
between the trees, with one OpenBLAS thread, each of these is run --repeats
times on one dataset:

- `explore.load_dataset` and `Dataset.state_table`;
- one `encoder._grad_step` on a 64-anchor batch drawn as `encoder.train`
  draws it, and `mlp_forward` and `mlp_backward` alone on that batch;
- one `Adam.step` of the encoder's parameters, and one `_probe_loss` over
  2048 probe groups;
- one epoch each of `encoder.train` and `planner.train_autoencoder`.

Each tree gets one line per layer: the median ms over every repeat of every
process, and the tracemalloc peak of one more call, which counts what the
call allocates (its inputs are made before tracing starts). Then one digest
of one epoch: both models' parameters and the encoder's probe losses. Trees
with equal digests trained bit for bit alike; the script exits 1 when they
differ.

    python scripts/bench_train.py                          # this checkout
    python scripts/bench_train.py --src ../parent/src --src src --pairs 3

The dataset is the perfbench fixture of the first tree's checkout (build it
with one `python3 perfbench/run.py --workload train --seed 1` there), or the
file given with --dataset.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def measure(path: str, repeats: int) -> dict:
    """{layer: {"ms": [...], "peak_mb": float}} and the one-epoch digest."""
    import numpy as np

    from slackline.config import TrainConfig
    from slackline.encoder import (Adam, _grad_step, _group_rows, _probe_loss,
                                   init_params, mlp_backward, mlp_forward,
                                   model_input, model_layout, params_bytes, train)
    from slackline.explore import load_dataset
    from slackline.planner import train_autoencoder
    from slackline.seeding import make_rng

    cfg = TrainConfig(epochs=1, seed=SEED)
    dataset = load_dataset(path)
    workspace, input_dim = model_layout(dataset.config)
    params = init_params(input_dim, cfg.embed_dim, workspace, cfg.seed)
    rows, ep_ids, steps = dataset.state_table()
    x_all = model_input(params, rows)
    starts = np.flatnonzero(steps == 0).tolist()
    ep_ranges = list(zip(starts, starts[1:] + [len(rows)]))
    rng = make_rng(SEED, "bench-train")
    anchors = rng.permutation(len(rows))
    batch = _group_rows(rng, anchors[:cfg.batch_anchors], ep_ids, ep_ranges,
                        cfg.negatives)
    x = x_all[batch.ravel()]
    probe_rows = _group_rows(rng, anchors[:2048], ep_ids, ep_ranges, cfg.negatives)
    _, grad_w, grad_b = _grad_step(params, x, cfg.batch_anchors, cfg.negatives)
    optimizer = Adam([a.copy() for a in params.weights + params.biases],
                     cfg.learning_rate)

    def forward():
        acts = [x]
        return mlp_forward(params, x, acts=acts), acts

    # each layer: (an untimed step that makes the call's argument, the call)
    layers = {
        "load_dataset": (lambda: path, load_dataset),
        "state_table": (lambda: dataset, lambda ds: ds.state_table()),
        "grad_step": (lambda: x, lambda b: _grad_step(
            params, b, cfg.batch_anchors, cfg.negatives)),
        "mlp_forward": (lambda: [x], lambda acts: mlp_forward(params, x, acts=acts)),
        "mlp_backward": (forward, lambda out: mlp_backward(params, out[1], out[0])),
        "adam_step": (lambda: grad_w + grad_b, optimizer.step),
        "probe_loss": (lambda: probe_rows, lambda r: _probe_loss(params, x_all, r)),
        "train_epoch": (lambda: dataset, lambda ds: train(ds, cfg)),
        "train_autoencoder_epoch": (lambda: dataset,
                                    lambda ds: train_autoencoder(ds, cfg)),
    }
    out = {}
    for name, (prepare, call) in layers.items():
        ms = []
        for _ in range(repeats):
            arg = prepare()
            t0 = perf_counter()
            call(arg)
            ms.append((perf_counter() - t0) * 1e3)
        arg = prepare()
        tracemalloc.start()
        try:
            call(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out[name] = {"ms": ms, "peak_mb": peak / 2**20}

    enc = train(dataset, cfg)
    ae = train_autoencoder(dataset, cfg)
    digest = hashlib.sha256(params_bytes(enc.params) + params_bytes(ae.params))
    digest.update(json.dumps([v.hex() for v in enc.epoch_losses]).encode())
    return {"layers": out, "states": len(rows), "digest": digest.hexdigest()[:16]}


def child(src: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, os.path.abspath(__file__), *args],
                          env=env, check=True, capture_output=True, text=True)
    return done.stdout


def fixture_dataset(src: str) -> str:
    """The dataset of the perfbench fixture that `src`'s checkout keeps."""
    bench = os.path.join(ROOT, "perfbench")
    code = ("import sys\n"
            "from stats import tree_digest\n"
            "from workloads import SCALES, fixture_key\n"
            "print(fixture_key(tree_digest(sys.argv[1]), SCALES['full']))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.abspath(src), bench]))
    key = subprocess.run([sys.executable, "-c", code, os.path.abspath(src)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout.strip()
    return os.path.join(os.path.dirname(os.path.abspath(src)), ".bench_build",
                        "perfbench", "fixtures", key, "dataset.jsonl")


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", action="append",
                        help="a source tree to measure (repeatable; default: src/)")
    parser.add_argument("--pairs", type=int, default=3,
                        help="fresh processes per tree, alternating (default 3)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed calls per layer per process (default 3)")
    parser.add_argument("--dataset", help="dataset file (default: the perfbench fixture)")
    parser.add_argument("--measure", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(args.measure, args.repeats)))
        return

    srcs = args.src or [os.path.join(ROOT, "src")]
    dataset = args.dataset or fixture_dataset(srcs[0])
    if not os.path.exists(dataset):
        sys.exit(f"dataset not found: {dataset} (build the perfbench fixture "
                 f"or pass --dataset)")
    runs: dict[str, list[dict]] = {src: [] for src in srcs}
    for pair in range(args.pairs):
        for src in srcs if pair % 2 == 0 else srcs[::-1]:
            runs[src].append(json.loads(child(
                src, "--measure", dataset, "--repeats", str(args.repeats))))
    digests = set()
    for src in srcs:
        print(f"{src}: {runs[src][0]['states']} states, one BLAS thread")
        for name in runs[src][0]["layers"]:
            ms = [v for run in runs[src] for v in run["layers"][name]["ms"]]
            peak = statistics.median(run["layers"][name]["peak_mb"]
                                     for run in runs[src])
            print(f"  {name:24} median {statistics.median(ms):9.3f} ms  "
                  f"peak {peak:7.2f} MB")
        digests.update(run["digest"] for run in runs[src])
        print(f"  one-epoch digest {runs[src][0]['digest']}")
    if len(digests) > 1:
        print("outputs differ between trees or runs")
        sys.exit(1)


if __name__ == "__main__":
    main()
