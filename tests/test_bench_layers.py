"""scripts/bench_layers.py end to end: one pair of child processes per
tree, one timed call per layer."""

import os
import re
import shutil
import subprocess
import sys

import pytest

import slackline
from slackline.explore import save_dataset

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.dirname(os.path.dirname(os.path.abspath(slackline.__file__)))


def bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_layers.py"),
         "--pairs", "1", "--repeats", "1", *args],
        capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Recorded by whichever test runs first, then reused."""
    return str(tmp_path_factory.mktemp("bench") / "corpus.jsonl")


def test_a_tree_against_itself_passes_with_one_digest_per_group(
        small_dataset, tmp_path, corpus):
    # 60 states: fewer than one batch of anchors
    dataset = str(tmp_path / "dataset.jsonl")
    save_dataset(small_dataset, dataset)
    done = bench("--src", SRC, "--src", SRC, "--corpus", corpus, "--dataset", dataset)
    assert done.returncode == 0, done.stderr
    for group in ("executor", "train"):
        digests = re.findall(rf"^  {group} digest ([0-9a-f]{{16}})$", done.stdout,
                             re.MULTILINE)
        assert len(digests) == 2 and digests[0] == digests[1], done.stdout
    assert "train: 60 states" in done.stdout


def test_a_changed_executor_fails_naming_the_group(tmp_path, corpus):
    changed = tmp_path / "src"
    shutil.copytree(SRC, changed, ignore=shutil.ignore_patterns("__pycache__"))
    simulator = changed / "slackline" / "simulator.py"
    text = simulator.read_text()
    assert "SUBSTEPS = 64\n" in text
    simulator.write_text(text.replace("SUBSTEPS = 64\n", "SUBSTEPS = 48\n"))
    done = bench("--src", SRC, "--src", str(changed), "--layers", "executor",
                 "--corpus", corpus)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "outputs differ between trees or runs: executor" in done.stderr


def test_a_failing_child_shows_its_stderr(tmp_path):
    missing = str(tmp_path / "missing.jsonl")
    done = bench("--layers", "train", "--dataset", missing)
    assert done.returncode == 2
    assert f"dataset file not found: {missing}" in done.stderr
    assert "train failed on" in done.stderr
