"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads: collect, train, eval,
sweep-clutter (see workloads.py). The program is imported from the
checkout's own src/; without it the benchmark exits 2 and prints no result.

The train, eval and sweep-clutter workloads consume a dataset, an encoder
and an autoencoder file: the pipeline's own, as the code under test builds
them through its CLI (`collect`, `train`, `train-ae`) at their defaults.
They are kept under .bench_build/perfbench/fixtures, keyed by the digest of
src/ and the fixture's sizes, so they are built once per checkout and code: by
its first run, whatever the workload, which may take several minutes.
Building them is not measured and does not count against a run's deadline.

The measurement itself runs in a child process (measure.py) whose output is
relayed unchanged; its last line is the result object.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("collect", "train", "eval", "sweep-clutter")
# every run must end within 180 s, apart from the fixture build
DEADLINE_S = 175.0
# building the pipeline-size fixture takes about six minutes on one core
FIXTURE_STEP_TIMEOUT_S = 600.0
# The load is one process plus the harness's pool workers, nothing else: BLAS
# runs single-threaded in everything the benchmark starts.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def build_fixtures(scale_name: str):
    """Dataset, encoder and autoencoder files, built by the program's own
    CLI from FIXTURE_SEED unless already present. Each step runs in a
    process of its own, so nothing it leaves behind (memory, BLAS threads)
    touches the measurement."""
    from slackline.config import TrainConfig
    from stats import tree_digest
    from workloads import FIXTURE_SEED, SCALES, Fixtures, fixture_key

    scale = SCALES[scale_name]
    folder = os.path.join(ROOT, ".bench_build", "perfbench", "fixtures",
                          fixture_key(tree_digest(SRC), scale))
    os.makedirs(folder, exist_ok=True)
    fx = Fixtures(os.path.join(folder, "dataset.jsonl"),
                  os.path.join(folder, "encoder.bin"),
                  os.path.join(folder, "autoencoder.bin"))
    config = []
    if scale.fixture_epochs != TrainConfig().epochs:
        config_path = os.path.join(folder, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write('{"train": {"epochs": %d}}\n' % scale.fixture_epochs)
        config = ["--config", config_path]

    def step(argv: list[str]) -> None:
        subprocess.run([sys.executable, "-m", "slackline.cli", *argv],
                       env=dict(os.environ, PYTHONPATH=SRC), stdout=sys.stderr,
                       check=True, timeout=FIXTURE_STEP_TIMEOUT_S)

    seed = ["--seed", str(FIXTURE_SEED)]
    steps = [("collect", fx.dataset, [*seed, "--episodes", str(scale.fixture_episodes),
                                      "--pool-size", str(scale.fixture_pool)])]
    for command, target in (("train", fx.encoder), ("train-ae", fx.autoencoder)):
        steps.append((command, target, ["--dataset", fx.dataset, *seed, *config]))
    for command, target, argv in steps:
        if os.path.exists(target):
            continue
        # built aside and moved into place, model sidecar first, so that a
        # file that exists is complete
        with tempfile.TemporaryDirectory(dir=folder) as tmp:
            out = os.path.join(tmp, os.path.basename(target))
            step([command, "--out", out, *argv])
            if os.path.exists(out + ".json"):
                os.replace(out + ".json", target + ".json")
            os.replace(out, target)
    return fx


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "slackline", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/slackline is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ.update(SINGLE_THREAD)
    # the first run in a checkout builds the fixtures, whatever its workload
    fx = build_fixtures(args.scale)
    start = monotonic()
    cmd = [sys.executable, os.path.join(HERE, "measure.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", args.scale, "--root", ROOT,
           "--dataset", fx.dataset, "--encoder", fx.encoder,
           "--autoencoder", fx.autoencoder]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (monotonic() - start)))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool workers
        proc.wait()
        print("perfbench: measurement exceeded its time budget", file=sys.stderr)
        return 3
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    raise SystemExit(main())
