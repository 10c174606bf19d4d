"""Measure one workload for one seed and print its metrics.

Run by run.py in a process of its own, after the fixtures exist, so that the
peak memory it reports belongs to the measured work and its pool workers
alone. The last line of standard output is the result object.

Untraced (--trace 0): set up several times (the median is setup_s), warm up,
then run rounds, cycling through the workload's distinct input sets, until
each set has run once and the next round would end after --seconds.
Traced (--trace 1): one untraced round of the
first set, then the same round with every layer wrapped
(tracing.instrument); on the pooled workloads also a one-worker round whose
bytes must equal the pooled ones.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

import numpy as np  # noqa: E402

from stats import percentile, ratio, tree_digest  # noqa: E402


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS numpy loaded, when it can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root: str) -> str | None:
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(root):
        return None  # a repository around the checkout, not the checkout's own
    return lines[1]


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def run_context(args, root: str, workers: int, src_digest: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "workers": workers,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
        "git_commit": git_commit(root), "src_sha256": src_digest,
    }


def peak_rss_mb() -> tuple[float, str]:
    """Largest peak resident set of this process and of any child it waited
    for (pool workers, set-up interpreters). The process's own peak is read
    from VmHWM, which starts afresh at exec; ru_maxrss would carry over the
    peak of the process that spawned it."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return max(own, kids), f"process {own:.1f} MB, largest child {kids:.1f} MB"


class Digests:
    """Digest agreement: between the rounds of a run that share an input
    set, with earlier runs of the same code and seed in this checkout (a
    mismatch fails the run), and with the digests recorded when the
    benchmark was defined (a difference is reported as a behaviour change).
    Digests are named `<digest>@<input set>`."""

    def __init__(self, store: str, key: str, reference: dict | None):
        self.path = os.path.join(store, key + ".json")
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.mismatches: list[str] = []

    def add(self, label: str, index: int, digests: dict) -> bool:
        agree = True
        for name, value in digests.items():
            key = f"{name}@{index}"
            if self.seen.setdefault(key, value) != value:
                self.mismatches.append(f"{label}: {key} differs from an earlier round")
                agree = False
        return agree

    def settle(self) -> list[str]:
        notes = []
        earlier = {}
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8") as fh:
                earlier = json.load(fh)
        for k, v in self.seen.items():
            if earlier.get(k, v) != v:
                self.mismatches.append(f"{k} differs from an earlier run of this code and seed")
        if not set(self.seen) <= set(earlier):
            os.makedirs(os.path.dirname(self.path), exist_ok=True)
            tmp = self.path + f".{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump({**self.seen, **earlier}, fh, sort_keys=True)
            os.replace(tmp, self.path)
        if self.reference is not None:
            moved = [k for k, v in self.seen.items() if self.reference.get(k, v) != v]
            notes.append(
                "behaviour change: " + ", ".join(moved) + " differ from the reference digests"
                if moved else "digests match the reference digests"
            )
        return notes


def timed_rounds(wl, ctx, seconds: float, work_dir: str) -> list:
    """Round i uses input set i mod distinct_rounds. Rounds run until every
    set has run once and the next round would end after `seconds`."""
    sets = wl.distinct_rounds
    rounds = []
    start = perf_counter()
    while True:
        rounds.append(wl.run_round(ctx, tempfile.mkdtemp(dir=work_dir), wl.workers,
                                   len(rounds) % sets))
        if len(rounds) >= sets and perf_counter() - start + rounds[-1].seconds > seconds:
            return rounds


def end_to_end(wl, setup_times, rounds) -> dict:
    """work_per_s is the work of one pass over the input sets divided by the
    time of that pass, each set timed by the median of its rounds: every set
    weighs the same whatever the number of rounds, and a stall in one round
    of a set that ran more than once is left out."""
    sets = wl.distinct_rounds
    distinct = rounds[:sets]
    times = [statistics.median(r.seconds for r in rounds[i::sets]) for i in range(sets)]
    work = sum(r.work for r in distinct)
    return {
        "setup_s": (statistics.median(setup_times), f"median of {len(setup_times)} set-ups"),
        "work_per_s": (work / sum(times),
                       f"{work} {wl.unit} over {sets} input sets in {len(rounds)} rounds; "
                       "per-set median s: " + ", ".join(f"{t:.4g}" for t in times)),
        "success_pct": (statistics.fmean(wl.success_pct(r) for r in distinct),
                        f"mean of {sets} input sets, "
                        f"{sum(r.attempted for r in distinct)} operations"),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(wl, tracer, traced, untraced, values: dict) -> dict:
    from slackline.harness import PLANNER_NAMES
    from tracing import self_times, span_stats

    spans = span_stats(tracer)
    counts = tracer.counts
    empty = {"calls": 0, "busy_s": 0.0, "durations": []}
    out: dict = {}

    def timing(name: str, fields=("calls", "busy_s")) -> None:
        entry = spans.get(name, empty)
        for f in fields:
            out[f"{name}.{f}"] = (entry[f], None)

    def pct(name: str, label: str, q: float, scale: float) -> None:
        durations = spans.get(name, empty)["durations"]
        p = percentile(durations, q)
        out[f"{name}.{label}"] = (
            0.0 if p is None else p * scale,
            f"{len(durations)} samples" + ("" if p is not None or not durations
                                           else ", too few beyond it: reported as 0"),
        )

    def busy(name: str) -> float:
        return spans.get(name, empty)["busy_s"]

    def share(name: str, workers: int) -> None:
        out[f"{name}.share_pct"] = (100.0 * busy(name) / (workers * traced.seconds),
                                    f"of {workers} x {traced.seconds:.3f} s traced")

    def per_second(key: str, amount: float, name: str) -> None:
        t = busy(name)
        out[key] = (amount / t if t else 0.0, f"over {t:.3f} s")

    timing("simulator.execute")
    pct("simulator.execute", "ms_p50", 50, 1e3)
    pct("simulator.execute", "ms_p99", 99, 1e3)
    share("simulator.execute", wl.workers)
    drags = counts["simulator.drags"]
    out["simulator.drags"] = (drags, None)
    for key, stat in (("pushes_per_drag", "obstacle_pushes"),
                      ("conflicts_per_drag", "placement_conflicts"),
                      ("joint_clamps_per_drag", "joint_clamps"),
                      ("workspace_clamps_per_drag", "workspace_clamps")):
        value, base = ratio(counts[f"simulator.{stat}"], drags)
        out[f"simulator.{key}"] = (value, f"base {base:.0f} drags")
    out["simulator.max_penetration_mm"] = (counts["simulator.max_penetration_m"] * 1e3, None)
    out["simulator.contract_violations"] = (counts["simulator.contract_violations"], None)
    timing("simulator.generate_env")

    timing("geometry.sequence_feasible")

    for name in ("leader-follower", "only-leader", "random-control"):
        timing(f"controller.{name}.select")
    timing("controller.feasible_correspondence_actions")

    for name in PLANNER_NAMES:
        timing(f"planner.{name}.plan")
    for name in ("contrastive", "template", "autoencoder"):
        pct(f"planner.{name}.plan", "us_p50", 50, 1e6)
        pct(f"planner.{name}.plan", "us_p99", 99, 1e6)
    timing("planner.build_index", ("busy_s",))
    out["planner.train_autoencoder.busy_s"] = (busy("planner.train_autoencoder"), None)
    per_second("planner.train_autoencoder.gflop_per_s",
               values.pop("planner.train_autoencoder.gflop", 0.0),
               "planner.train_autoencoder")
    per_second("planner.train_autoencoder.state_epochs_per_s",
               values.pop("planner.train_autoencoder.state_epochs", 0),
               "planner.train_autoencoder")

    out["encoder.train.busy_s"] = (busy("encoder.train"), None)
    share("encoder.train", 1)
    per_second("encoder.train.rows_per_s", values.pop("encoder.train.rows", 0),
               "encoder.train")
    out["encoder.train.gflop"] = (values.get("encoder.train.gflop", 0.0), "computed")
    per_second("encoder.train.gflop_per_s", values.pop("encoder.train.gflop", 0.0),
               "encoder.train")
    per_second("encoder.train.state_epochs_per_s",
               values.pop("encoder.train.state_epochs", 0), "encoder.train")
    timing("encoder.encode_batch")

    out["explore.build_goal_pool.busy_s"] = (busy("explore.build_goal_pool"), None)
    out["explore.goal_pool_drags"] = (counts["explore.goal_pool_drags"], None)
    out["explore.collect.busy_s"] = (
        busy("explore.collect") - busy("explore.build_goal_pool"), "goal pool excluded")
    collect_drags = drags - counts["explore.goal_pool_drags"]
    value, base = ratio(values.pop("explore.kept_drags", 0), collect_drags)
    out["explore.useful_drag_ratio"] = (value, f"base {base:.0f} drags executed by collect")
    out["explore.save_dataset.busy_s"] = (busy("explore.save_dataset"), None)
    out["explore.load_dataset.busy_s"] = (busy("explore.load_dataset"), None)

    timing("policy.run_episode")
    pct("policy.run_episode", "ms_p50", 50, 1e3)
    pct("policy.run_episode", "ms_p99", 99, 1e3)

    out["harness.evaluate.busy_s"] = (busy("harness.evaluate"), None)
    value, base = ratio(busy("policy.run_episode"), wl.workers * busy("harness.evaluate"))
    out["harness.pool_efficiency"] = (value, f"base {wl.workers} x {busy('harness.evaluate'):.3f} s")

    layer_self = self_times(tracer)
    for layer in ("simulator", "geometry", "controller", "planner", "encoder",
                  "explore", "policy", "harness"):
        out[f"{layer}.self_s"] = (layer_self.get(layer, 0.0), None)

    out["trace.timed_s"] = (traced.seconds, None)
    out["trace.untraced_s"] = (untraced.seconds, None)
    out["trace.overhead_s"] = (traced.seconds - untraced.seconds, "traced minus untraced")
    out["trace.spans"] = (len(tracer.spans), None)

    for key, value in values.items():
        out[key] = (value[0], f"base {value[1]}") if isinstance(value, tuple) else (value, None)
    return out


def emit(declared: list[dict], values: dict, zero_fill: bool) -> dict:
    """Print one report line per declared metric and return the result's
    metrics object."""
    unknown = sorted(set(values) - {m["name"] for m in declared})
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    metrics = {}
    for m in declared:
        if m["name"] in values:
            value, note = values[m["name"]]
        elif zero_fill:
            value, note = 0.0, "layer not exercised"
        else:
            raise KeyError(f"no value for metric {m['name']}")
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"metric {m['name']} = {float(value):.6g} {m['unit']}"
              + (f"  ({note})" if note else ""))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--root", required=True)
    parser.add_argument("--dataset")
    parser.add_argument("--encoder")
    parser.add_argument("--autoencoder")
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import workloads
    from tracing import Tracer, instrument, write_spans

    with open(os.path.join(args.root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wl_cls = workloads.WORKLOADS[args.workload]
    scale = workloads.SCALES[args.scale]
    fixtures = workloads.Fixtures(args.dataset, args.encoder, args.autoencoder)
    wl = wl_cls(args.seed, scale, src, fixtures)
    src_digest = tree_digest(src)
    print("context " + json.dumps(run_context(args, args.root, wl.workers, src_digest)))

    with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as fh:
        reference = json.load(fh).get(
            f"{workloads.scale_id(scale)}/{args.workload}/{args.seed}")
    state_dir = os.path.join(args.root, ".bench_build", "perfbench")
    digests = Digests(os.path.join(state_dir, "digests"),
                      f"{workloads.state_key(src_digest, scale)}-{args.workload}-{args.seed}",
                      reference)
    os.makedirs(state_dir, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=state_dir)
    try:
        setup_times = []
        for _ in range(wl.setup_repeats):
            t0 = perf_counter()
            ctx = wl.setup()
            setup_times.append(perf_counter() - t0)
        wl.warmup(ctx)
        if args.trace:
            rounds = [wl.run_round(ctx, tempfile.mkdtemp(dir=work_dir), wl.workers, 0)]
            tracer = Tracer()
            with instrument(tracer):
                traced_ctx = wl.setup()
                traced = wl.run_round(traced_ctx, tempfile.mkdtemp(dir=work_dir),
                                      wl.workers, 0)
            rounds.append(traced)
            labels = ["untraced round", "traced round"]
            if wl.workers > 1:
                rounds.append(wl.run_round(ctx, tempfile.mkdtemp(dir=work_dir), 1, 0))
                labels.append("one-worker round")
            indices = [0] * len(rounds)
            distinct = rounds[:1]
        else:
            rounds = timed_rounds(wl, ctx, args.seconds, work_dir)
            labels = [f"round {i + 1}" for i in range(len(rounds))]
            indices = [i % wl.distinct_rounds for i in range(len(rounds))]
            distinct = rounds[:wl.distinct_rounds]

        attempted = sum(r.attempted for r in rounds)
        failed = 0
        for label, index, r in zip(labels, indices, rounds):
            if not digests.add(label, index, r.digests):
                failed += r.attempted
        # a round that repeats an input set with the same digests repeats its
        # outputs, and so its check failures
        problems = []
        for index, r in enumerate(distinct):
            found = wl.check(ctx, r)
            failed += len(found) * indices.count(index)
            problems += [f"input set {index}: {p}" for p in found]
        notes = digests.settle()
        # actions whose only breach of the executor contract is an obstacle
        # penetration above 1 mm: the open executor defect that acceptance
        # criterion 2 (tests/test_acceptance.py) reports. They count in
        # `failed` and are listed, but leave `correct` to the checks the
        # program meets; a link or bend breach makes the run incorrect.
        known = 0
        if args.trace:
            violations = int(tracer.counts["simulator.contract_violations"])
            known = violations - int(tracer.counts["simulator.shape_violations"])
            failed += violations
            problems += [f"executor contract: {v}" for v in tracer.violations]
            if known:
                notes.append(
                    f"known executor defect: {known} actions penetrate an obstacle by "
                    f"more than 1 mm (worst "
                    f"{tracer.counts['simulator.max_penetration_m'] * 1e3:.3f} mm); "
                    "counted in failed, not in correct")
        for line in problems[:20] + digests.mismatches + notes:
            print("check " + line)
        for name, value in sorted(digests.seen.items()):
            print(f"digest {name} {value}")
        print(f"operations attempted {attempted}, failed {failed}, error_ratio "
              f"{failed / attempted:.6g}")

        if args.trace:
            values = wl.layer_values(traced_ctx, traced)
            metrics = emit(bench["per_layer"],
                           per_layer(wl, tracer, traced, rounds[0], values), True)
            trace_dir = os.path.join(state_dir, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            trace_path = os.path.join(trace_dir, f"{args.workload}-{args.seed}.jsonl")
            write_spans(tracer, trace_path)
            print(f"spans {len(tracer.spans)} written to {trace_path}")
        else:
            metrics = emit(bench["end_to_end"],
                           end_to_end(wl, setup_times, rounds), False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    correct = failed == known and not digests.mismatches
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
