import hashlib
import json
import math
import os
import shlex
import shutil
import struct
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from slackline.cli import main
from slackline.explore import Dataset, save_dataset
from slackline.simulator import EnvState


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory, small_dataset):
    path = tmp_path_factory.mktemp("cli") / "ds.jsonl"
    save_dataset(small_dataset, str(path))
    return str(path)


@pytest.fixture(scope="module")
def encoder_path(tmp_path_factory, small_encoder):
    from slackline.config import TrainConfig
    from slackline.encoder import save_params

    path = tmp_path_factory.mktemp("cli-enc") / "enc.bin"
    save_params(small_encoder, str(path), TrainConfig(epochs=3, seed=11))
    return str(path)


@pytest.fixture(scope="module")
def autoencoder_path(tmp_path_factory, dataset_path):
    folder = tmp_path_factory.mktemp("cli-ae")
    cfg = folder / "cfg.json"
    cfg.write_text(json.dumps({"train": {"epochs": 1, "embed_dim": 8}}))
    path = folder / "ae.bin"
    code = main(["train-ae", "--dataset", dataset_path, "--out", str(path),
                 "--config", str(cfg)])
    assert code == 0
    return str(path)


def run_cli(*argv) -> int:
    return main(list(argv))


class TestExitCodes:
    def test_unknown_planner_exits_1_and_lists_names(self, capsys, dataset_path):
        code = run_cli(
            "run", "--dataset", dataset_path, "--planner", "bogus",
            "--seed", "1",
        )
        assert code == 1
        err = capsys.readouterr().err
        for name in ("contrastive", "fixed", "random", "template", "autoencoder"):
            assert name in err

    def test_missing_dataset_exits_2_with_path(self, capsys):
        code = run_cli("train", "--dataset", "/nope/missing.jsonl", "--out", "/tmp/x.bin")
        assert code == 2
        assert "/nope/missing.jsonl" in capsys.readouterr().err

    def test_usage_error_exits_1(self):
        with pytest.raises(SystemExit) as err:
            run_cli("eval")  # missing required args
        assert err.value.code == 1

    def test_malformed_dataset_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code = run_cli("train", "--dataset", str(bad), "--out", str(tmp_path / "e.bin"))
        assert code == 2

    @pytest.mark.parametrize("command", ["eval", "sweep"])
    def test_no_episodes_exits_2(self, tmp_path, capsys, dataset_path,
                                 encoder_path, command):
        extra = ["--param", "reach_max", "--values", "0.45"] if command == "sweep" else []
        code = run_cli(
            command, "--dataset", dataset_path, "--encoder", encoder_path,
            *extra, "--episodes", "0", "--out", str(tmp_path / "r"),
        )
        assert code == 2
        assert "episodes must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "--matrix", "fixed:leader-follower", "--episodes", "0"],
        ["sweep", "--param", "reach_max", "--values", "0.5"],  # no --encoder
    ])
    def test_refused_run_leaves_no_output_directory(self, tmp_path, dataset_path,
                                                    argv):
        out = tmp_path / "out"
        code = run_cli(*argv, "--dataset", dataset_path, "--out", str(out))
        assert code == 2
        assert not out.exists()

    # each refused before the command runs, naming the file and the field
    @pytest.mark.parametrize("config, field", [
        ({"task": None}, "task"),
        ({"train": [1]}, "train"),
        ({"task": {"keypoint_count": "16"}}, "keypoint_count"),
        ({"task": {"keypoint_count": 16.0}}, "keypoint_count"),
        ({"task": {"obstacle_count": True}}, "obstacle_count"),
        ({"task": {"reach_max": "0.4"}}, "reach_max"),
        ({"task": {"reach_max": False}}, "reach_max"),
        ({"task": {"dlo_length_range": [0.5]}}, "dlo_length_range"),
        ({"task": {"dlo_length_range": 0.5}}, "dlo_length_range"),
        ({"task": {"arm_bases": [[0.16, 0.3], [0.84]]}}, "arm_bases"),
        ({"task": {"arm_bases": [[0.16, 0.3], [0.84, None]]}}, "arm_bases"),
        ({"train": {"epochs": 2.5}}, "epochs"),
        ({"train": {"learning_rate": None}}, "learning_rate"),
        # json writes these as the Infinity and NaN literals json.load accepts
        ({"task": {"reach_max": math.inf}}, "reach_max must be finite"),
        ({"task": {"obstacle_radius": math.nan}}, "obstacle_radius must be finite"),
        ({"task": {"dlo_length_range": [0.5, math.inf]}},
         "dlo_length_range must be finite"),
        ({"task": {"arm_bases": [[0.16, math.nan], [0.84, 0.3]]}},
         "arm_bases must be finite"),
        ({"train": {"learning_rate": math.nan}}, "learning_rate must be finite"),
    ])
    def test_mistyped_config_exits_2(self, tmp_path, capsys, dataset_path,
                                     config, field):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        for argv in (["collect", "--out", str(tmp_path / "d.jsonl"),
                      "--episodes", "1", "--pool-size", "1"],
                     ["train", "--dataset", dataset_path,
                      "--out", str(tmp_path / "e.bin")]):
            assert run_cli(*argv, "--config", str(path)) == 2
            err = capsys.readouterr().err
            assert str(path) in err and field in err
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_well_typed_config_is_not_coerced(self, tmp_path):
        """An int in a float field loads as written, so the config digest
        of a valid file does not move."""
        from slackline.config import (
            TaskConfig, TrainConfig, config_digest, load_config_file,
        )

        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "task": {"reach_max": 1, "dlo_length_range": [0.5, 1],
                     "arm_bases": [[0.16, 0.3], [0.84, 0.3]]},
            "train": {"epochs": 2, "learning_rate": 0.001},
        }))
        task, train = load_config_file(str(path))
        want = TaskConfig(reach_max=1, dlo_length_range=(0.5, 1))
        assert config_digest(task, train) == config_digest(
            want, TrainConfig(epochs=2, learning_rate=0.001)
        )
        assert config_digest(task) != config_digest(
            TaskConfig(reach_max=1.0, dlo_length_range=(0.5, 1.0))
        )

    def test_unknown_sweep_param_exits_1(self, capsys, dataset_path, encoder_path):
        code = run_cli(
            "sweep", "--dataset", dataset_path, "--encoder", encoder_path,
            "--param", "bogus", "--values", "0.1", "--episodes", "1",
            "--seed", "1", "--out", "/tmp/sweep-bogus",
        )
        assert code == 1


class TestAutoencoderFileChecks:
    """A broken autoencoder file exits 2 with a message naming the file."""

    @pytest.fixture
    def ae_copy(self, tmp_path, autoencoder_path):
        path = tmp_path / "ae.bin"
        shutil.copyfile(autoencoder_path, path)
        shutil.copyfile(autoencoder_path + ".json", tmp_path / "ae.bin.json")
        return path

    def eval_with(self, path, dataset_path, out) -> int:
        return run_cli(
            "eval", "--dataset", dataset_path, "--autoencoder", str(path),
            "--matrix", "autoencoder:leader-follower", "--episodes", "1",
            "--seed", "2", "--out", str(out),
        )

    def test_intact_copy_evaluates(self, tmp_path, ae_copy, dataset_path):
        assert self.eval_with(ae_copy, dataset_path, tmp_path / "r") == 0
        manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
        want = hashlib.sha256(ae_copy.read_bytes()).hexdigest()
        assert manifest["autoencoder_digest"] == want

    def test_sidecar_without_workspace(self, tmp_path, capsys, ae_copy, dataset_path):
        sidecar = tmp_path / "ae.bin.json"
        data = json.loads(sidecar.read_text())
        del data["workspace"]
        sidecar.write_text(json.dumps(data))
        assert self.eval_with(ae_copy, dataset_path, tmp_path / "r") == 2
        assert f"{ae_copy}.json: bad sidecar" in capsys.readouterr().err

    def test_truncated_file(self, tmp_path, capsys, ae_copy, dataset_path):
        ae_copy.write_bytes(ae_copy.read_bytes()[:-16])
        assert self.eval_with(ae_copy, dataset_path, tmp_path / "r") == 2
        assert f"{ae_copy}: truncated" in capsys.readouterr().err

    def test_trailing_bytes(self, tmp_path, capsys, ae_copy, dataset_path):
        ae_copy.write_bytes(ae_copy.read_bytes() + b"\x00" * 8)
        assert self.eval_with(ae_copy, dataset_path, tmp_path / "r") == 2
        assert f"{ae_copy}: trailing" in capsys.readouterr().err


class TestTaskFit:
    """run, eval and sweep refuse a dataset or a model made for another task
    than the one in force: exit 2, with a message naming the file and the
    field."""

    @staticmethod
    def header_copy(tmp_path, dataset, **fields) -> str:
        """`dataset` saved under a header changed by `fields`, its states cut
        or padded (by repeating rows) to the keypoint and obstacle counts
        that header gives, as a file collected for that task would be."""
        config = replace(dataset.config, **fields)

        def fit(state):
            return EnvState(np.resize(state.q, (config.keypoint_count, 2)),
                            np.resize(state.o, (config.obstacle_count, 2)))

        episodes = tuple(replace(ep, states=tuple(map(fit, ep.states)))
                         for ep in dataset.episodes)
        path = tmp_path / "ds.jsonl"
        save_dataset(Dataset(episodes, tuple(map(fit, dataset.goal_pool)), config),
                     str(path))
        return str(path)

    @staticmethod
    def sidecar_copy(tmp_path, path, **fields) -> str:
        copy = tmp_path / os.path.basename(path)
        shutil.copyfile(path, copy)
        with open(path + ".json", encoding="utf-8") as fh:
            sidecar = json.load(fh)
        sidecar.update(fields)
        (tmp_path / (copy.name + ".json")).write_text(json.dumps(sidecar))
        return str(copy)

    @pytest.mark.parametrize("field,value", [
        ("obstacle_count", 5), ("keypoint_count", 12),
        ("workspace_width", 1.2), ("workspace_height", 0.7),
    ])
    def test_dataset_header(self, tmp_path, capsys, small_dataset, field, value):
        path = self.header_copy(tmp_path, small_dataset, **{field: value})
        code = run_cli("run", "--dataset", path, "--planner", "template",
                       "--seed", "1")
        assert code == 2
        assert f"{path}: header {field} = {value}" in capsys.readouterr().err

    def test_swept_fields_may_differ(self, tmp_path, small_dataset):
        path = self.header_copy(tmp_path, small_dataset, reach_max=0.5,
                                obstacle_radius=0.05)
        code = run_cli("run", "--dataset", path, "--planner", "template",
                       "--seed", "1", "--out", str(tmp_path / "r.json"))
        assert code == 0

    @pytest.mark.parametrize("fields, note", [
        ({}, None),
        ({"reach_max": 0.5, "obstacle_radius": 0.05},
         "the task in force differs from the header: obstacle_radius = 0.04 "
         "(header 0.05), reach_max = 0.45 (header 0.5)"),
    ], ids=["equal", "differing"])
    def test_task_fields_against_header(self, tmp_path, capsys, small_dataset,
                                        dataset_path, fields, note):
        """A header that differs from the task in force in fields the layout
        does not fix is named in one stderr line; the exit code, stdout and
        metrics.csv are those of the dataset under its own header, and the
        manifest carries the header's config digest and the version."""
        from slackline import __version__
        from slackline.config import config_digest

        def eval_with(path, out):
            code = run_cli("eval", "--dataset", path, "--matrix",
                           "fixed:leader-follower", "--episodes", "2",
                           "--seed", "3", "--out", str(out))
            return code, capsys.readouterr()

        code, want = eval_with(dataset_path, tmp_path / "want")
        assert code == 0
        path = self.header_copy(tmp_path, small_dataset, **fields)
        code, got = eval_with(path, tmp_path / "got")
        assert code == 0
        assert got.out == want.out
        assert ((tmp_path / "got" / "metrics.csv").read_bytes()
                == (tmp_path / "want" / "metrics.csv").read_bytes())
        notes = [line for line in got.err.splitlines() if "note" in line]
        assert notes == ([] if note is None else
                         [f"slackline: note: {path}: {note}"])
        manifest = json.loads((tmp_path / "got" / "manifest.json").read_text())
        header = replace(small_dataset.config, **fields)
        assert manifest["dataset_config_digest"] == config_digest(header)
        assert manifest["version"] == __version__

    @pytest.mark.parametrize("flag", ["--encoder", "--autoencoder"])
    def test_model_input_size(self, tmp_path, capsys, small_dataset, flag,
                              encoder_path, autoencoder_path):
        model = encoder_path if flag == "--encoder" else autoencoder_path
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"task": {"obstacle_count": 5}}))
        path = self.header_copy(tmp_path, small_dataset, obstacle_count=5)
        code = run_cli("eval", "--config", str(cfg), "--dataset", path,
                       flag, model, "--matrix", "fixed:leader-follower",
                       "--episodes", "1", "--out", str(tmp_path / "r"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{model}: input size sizes[0] = 40, the task in force gives 42" in err

    @pytest.mark.parametrize("flag", ["--encoder", "--autoencoder"])
    def test_model_workspace(self, tmp_path, capsys, dataset_path, flag,
                             encoder_path, autoencoder_path):
        model = encoder_path if flag == "--encoder" else autoencoder_path
        copy = self.sidecar_copy(tmp_path, model, workspace=[1.2, 0.6])
        code = run_cli("sweep", "--dataset", dataset_path, flag, copy,
                       "--param", "reach_max", "--values", "0.45",
                       "--episodes", "1", "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{copy}.json: workspace [1.2, 0.6]" in capsys.readouterr().err


class TestModelKinds:
    """The encoder and the autoencoder share one container; each flag takes
    only its own kind."""

    @pytest.mark.parametrize("flag", ["--encoder", "--autoencoder"])
    def test_other_kind_exits_2(self, tmp_path, capsys, dataset_path, flag,
                                encoder_path, autoencoder_path):
        model = autoencoder_path if flag == "--encoder" else encoder_path
        code = run_cli("eval", "--dataset", dataset_path, flag, model,
                       "--matrix", "fixed:leader-follower", "--episodes", "1",
                       "--out", str(tmp_path / "r"))
        assert code == 2
        assert f"{model}: bad magic" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("autoencoder", [False, True])
    def test_save_load_keeps_digest(self, tmp_path, encoder_path,
                                    autoencoder_path, autoencoder):
        from slackline.encoder import load_params, params_digest, save_params

        path = autoencoder_path if autoencoder else encoder_path
        params = load_params(path, autoencoder)
        with open(path, "rb") as fh:
            assert params_digest(params) == hashlib.sha256(fh.read()).hexdigest()
        copy = str(tmp_path / "copy.bin")
        save_params(params, copy)
        assert params_digest(load_params(copy, autoencoder)) == params_digest(params)


class TestModelFileRefusals:
    """A missing model file, a NaN or infinite weight or bias, or an
    autoencoder whose latent layer is not an inner layer, exits 2 with the
    message naming the file; no --out is left."""

    @staticmethod
    def eval_with(dataset_path, flag, path) -> int:
        return run_cli("eval", "--dataset", dataset_path, flag, path,
                       "--matrix", "fixed:only-leader", "--episodes", "1",
                       "--out", "out")

    @pytest.mark.parametrize("flag, model", [("--encoder", "encoder"),
                                             ("--autoencoder", "autoencoder")])
    def test_missing_file(self, tmp_path, monkeypatch, capsys, dataset_path,
                          flag, model):
        monkeypatch.chdir(tmp_path)
        assert self.eval_with(dataset_path, flag, "missing.bin") == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"slackline: data error: {model} file not found: missing.bin")
        assert not (tmp_path / "out").exists()

    # the latent index, stored after the layer sizes, set to the input layer
    # or to the output layer
    @pytest.mark.parametrize("latent", [lambda count: 0, lambda count: count - 1],
                             ids=["input", "output"])
    def test_latent_layer_out_of_range(self, tmp_path, monkeypatch, capsys,
                                       dataset_path, autoencoder_path, latent):
        monkeypatch.chdir(tmp_path)
        blob = bytearray(open(autoencoder_path, "rb").read())
        (count,) = struct.unpack_from("<I", blob, 8)
        struct.pack_into("<I", blob, 12 + 4 * count, latent(count))
        (tmp_path / "ae.bin").write_bytes(bytes(blob))
        shutil.copyfile(autoencoder_path + ".json", tmp_path / "ae.bin.json")
        assert self.eval_with(dataset_path, "--autoencoder", "ae.bin") == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"slackline: data error: ae.bin: latent layer {latent(count)} "
            f"outside {count} layers")
        assert not (tmp_path / "out").exists()

    # the first weight set to NaN, or the last bias to infinity; an
    # autoencoder's header holds one more u32, its latent layer
    @pytest.mark.parametrize("last, value", [(False, math.nan), (True, math.inf)],
                             ids=["nan-first-weight", "inf-last-bias"])
    @pytest.mark.parametrize("flag, kind", [("--encoder", 0),
                                            ("--autoencoder", 1)])
    def test_non_finite_weight(self, tmp_path, monkeypatch, capsys,
                               dataset_path, encoder_path, autoencoder_path,
                               flag, kind, last, value):
        monkeypatch.chdir(tmp_path)
        source = autoencoder_path if kind else encoder_path
        blob = bytearray(open(source, "rb").read())
        (count,) = struct.unpack_from("<I", blob, 8)
        offset = len(blob) - 8 if last else 12 + 4 * (count + kind)
        struct.pack_into("<d", blob, offset, value)
        (tmp_path / "m.bin").write_bytes(bytes(blob))
        shutil.copyfile(source + ".json", tmp_path / "m.bin.json")
        code = run_cli("run", "--dataset", dataset_path, flag, "m.bin",
                       "--planner", "fixed", "--seed", "1", "--out", "r.json")
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "slackline: data error: m.bin: a weight or bias is NaN or infinite")
        assert not (tmp_path / "r.json").exists()


class TestConfigRanges:
    """Each range check of the two config classes refuses a bad value with
    its message; through --config the command exits 2 naming the file and
    the block."""

    @pytest.mark.parametrize("block, fields, message", [
        ("task", {"keypoint_count": 2}, "keypoint_count must be >= 3, got 2"),
        ("task", {"dlo_length_range": [0.7, 0.5]},
         "bad dlo_length_range (0.7, 0.5)"),
        ("task", {"joint_limit": 0.0}, "joint_limit must be positive"),
        ("task", {"reach_min": 0.45}, "reach_min must be smaller than reach_max"),
        ("task", {"obstacle_clearance": 0.03},
         "obstacle_clearance must be >= obstacle_radius"),
        ("task", {"obstacle_count": -1}, "obstacle_count must be >= 0"),
        ("task", {"horizon_max": 0}, "horizon_max must be >= 1"),
        ("task", {"arm_bases": [[0.0, 0.3], [1.0, 0.3]]},
         "arm bases 1.000 m apart leave no shared region (need < 0.900 m)"),
        ("train", {"negatives": 0}, "negatives must be >= 1"),
        ("train", {"epochs": 0}, "epochs must be >= 1"),
        ("train", {"learning_rate": -0.001}, "learning_rate must be positive"),
    ])
    def test_bad_value_exits_2(self, tmp_path, monkeypatch, capsys, block,
                               fields, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({block: fields}))
        code = run_cli("collect", "--config", "cfg.json", "--out", "d.jsonl",
                       "--episodes", "1", "--pool-size", "1")
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"slackline: data error: cfg.json: {block}: {message}")
        assert sorted(os.listdir(tmp_path)) == ["cfg.json"]

    def test_arm_id_out_of_range(self):
        from slackline.config import TaskConfig

        with pytest.raises(ValueError, match=r"^arm_id must be 1 or 2, got 3$"):
            TaskConfig().arm(3)


class TestInputChecks:
    """Non-finite config and dataset numbers and wrongly shaped dataset
    states are refused where they come in, with a message naming the
    source."""

    @staticmethod
    def edited_copy(tmp_path, dataset_path, lineno, edit) -> str:
        with open(dataset_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        obj = json.loads(lines[lineno - 1])
        edit(obj)
        lines[lineno - 1] = json.dumps(obj)
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_non_finite_dataset_header_exits_2(self, tmp_path, capsys,
                                               dataset_path):
        def edit(header):
            header["config"]["reach_max"] = math.inf

        path = self.edited_copy(tmp_path, dataset_path, 1, edit)
        code = run_cli("run", "--dataset", path, "--planner", "template",
                       "--seed", "1", "--out", str(tmp_path / "r.json"))
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}:1" in err and "reach_max must be finite" in err

    def test_non_finite_sweep_value_exits_1(self, tmp_path, capsys, dataset_path,
                                            encoder_path):
        out = tmp_path / "r"
        code = run_cli("sweep", "--dataset", dataset_path, "--encoder",
                       encoder_path, "--param", "reach_max", "--values",
                       "0.4,inf", "--episodes", "1", "--out", str(out))
        assert code == 1
        assert "--values" in capsys.readouterr().err
        assert not out.exists()

    # one keypoint short in a goal of the header, or in an episode's state
    @pytest.mark.parametrize("lineno, key, message", [
        (1, "goals", "goal shape q (15, 2)"),
        (3, "states", "state shapes q (15, 2)"),
    ])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_state_shape_mismatch_exits_2(self, tmp_path, capsys, dataset_path,
                                          command, lineno, key, message):
        def edit(obj):
            obj[key][1]["q"].pop()

        path = self.edited_copy(tmp_path, dataset_path, lineno, edit)
        extra = (["--out", str(tmp_path / "e.bin")] if command == "train" else
                 ["--matrix", "fixed:leader-follower", "--episodes", "1",
                  "--out", str(tmp_path / "r")])
        assert run_cli(command, "--dataset", path, *extra) == 2
        assert f"{path}:{lineno}: {message}" in capsys.readouterr().err

    # a state's coordinate, a drag's place, an episode's lambda or a header
    # goal's coordinate written as a literal that json reads as NaN or
    # infinity (1e999 overflows to inf)
    @pytest.mark.parametrize("lineno, where", [
        (3, lambda obj: (obj["states"][1]["q"][4], 0)),
        (3, lambda obj: (obj["actions"][0]["leader"]["place"], 1)),
        (4, lambda obj: (obj, "lambda")),
        (1, lambda obj: (obj["goals"][2]["q"][0], 1)),
    ], ids=["state", "action", "lambda", "goal"])
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_dataset_number_exits_2(self, tmp_path, capsys,
                                               dataset_path, lineno, where,
                                               token):
        def edit(obj):
            holder, key = where(obj)
            holder[key] = "@non-finite@"

        path = self.edited_copy(tmp_path, dataset_path, lineno, edit)
        with open(path, encoding="utf-8") as fh:
            text = fh.read().replace('"@non-finite@"', token)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = tmp_path / "e.bin"
        assert run_cli("train", "--dataset", path, "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert f"{path}:{lineno}: " in err and "NaN or infinity" in err
        assert not out.exists()

    # an integer field written as Infinity: int() raises OverflowError, not
    # ValueError, and that too is refused with the line
    @pytest.mark.parametrize("lineno, key", [(3, "seed"), (1, "episodes")])
    def test_infinite_integer_field_exits_2(self, tmp_path, capsys, dataset_path,
                                            lineno, key):
        def edit(obj):
            obj[key] = math.inf

        path = self.edited_copy(tmp_path, dataset_path, lineno, edit)
        assert run_cli("train", "--dataset", path, "--out",
                       str(tmp_path / "e.bin")) == 2
        assert f"{path}:{lineno}: " in capsys.readouterr().err

    def test_non_finite_dataset_refused_by_eval(self, tmp_path, capsys,
                                                dataset_path):
        def edit(obj):
            obj["states"][0]["o"][0][1] = math.nan

        path = self.edited_copy(tmp_path, dataset_path, 5, edit)
        out = tmp_path / "r"
        assert run_cli("eval", "--dataset", path, "--matrix",
                       "fixed:leader-follower", "--episodes", "1",
                       "--out", str(out)) == 2
        assert f"{path}:5: " in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_byte_identical_reruns(self, tmp_path, dataset_path, encoder_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for out in (out1, out2):
            code = run_cli(
                "run", "--dataset", dataset_path, "--encoder", encoder_path,
                "--planner", "contrastive", "--controller", "leader-follower",
                "--seed", "5", "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_render_flag_writes_frames(self, tmp_path, dataset_path, encoder_path):
        """`run` has no `--render`: a run's frames come from `run --out`
        followed by `slackline render`, one per recorded state, and a second
        render of the same result writes the same bytes."""
        out = tmp_path / "ep.json"
        args = ("run", "--dataset", dataset_path, "--encoder", encoder_path,
                "--seed", "5", "--out", str(out))
        with pytest.raises(SystemExit) as err:
            run_cli(*args, "--render", str(tmp_path / "frames"))
        assert err.value.code == 1
        assert not out.exists()
        assert run_cli(*args) == 0
        result = json.loads(out.read_text())
        renders = []
        for name in ("a", "b"):
            frames = tmp_path / name
            assert run_cli("render", "--result", str(out), "--out", str(frames)) == 0
            svgs = sorted(os.listdir(frames))
            assert len(svgs) == result["steps"] + 1
            renders.append([(frames / svg).read_bytes() for svg in svgs])
        assert renders[0] == renders[1]


class TestEval:
    def test_small_matrix(self, tmp_path, dataset_path, encoder_path):
        out = tmp_path / "report"
        code = run_cli(
            "eval", "--dataset", dataset_path, "--encoder", encoder_path,
            "--matrix", "contrastive:leader-follower,random:leader-follower",
            "--episodes", "3", "--seed", "2", "--out", str(out),
        )
        assert code == 0
        csv = (out / "metrics.csv").read_text().splitlines()
        assert csv[0] == (
            "cell,planner,controller,episodes,success_rate,mean_actions,"
            "std_actions"
        )
        assert len(csv) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["env_seeds"]) == 3
        assert manifest["encoder_digest"]
        assert manifest["autoencoder_digest"] is None
        with open(dataset_path, "rb") as fh:
            assert manifest["dataset_sha256"] == hashlib.sha256(fh.read()).hexdigest()
        results = (out / "results_contrastive+leader-follower.jsonl")
        assert len(results.read_text().splitlines()) == 3

    def test_eval_envs_in_dataset(self, tmp_path, dataset_path, encoder_path,
                                  small_dataset):
        """At the dataset's own collect seed the eval environments are the
        ones collect drew, so the kept ones count; another seed's share
        none. A sweep writes the count of each of its points."""
        counts = []
        for seed in (202, 203):
            out = tmp_path / str(seed)
            code = run_cli(
                "eval", "--dataset", dataset_path, "--matrix",
                "fixed:leader-follower", "--episodes", "6", "--seed", str(seed),
                "--out", str(out),
            )
            assert code == 0
            manifest = json.loads((out / "manifest.json").read_text())
            kept = {ep.seed for ep in small_dataset.episodes}
            assert manifest["eval_envs_in_dataset"] == len(
                kept.intersection(manifest["env_seeds"]))
            counts.append(manifest["eval_envs_in_dataset"])
        assert counts[0] > 0
        assert counts[1] == 0

        # sweep: one count per point, each under that point's task; a wider
        # obstacle radius draws other environments, so none is in the dataset
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--dataset", dataset_path, "--encoder", encoder_path,
            "--param", "obstacle_radius", "--values", "0.04,0.05",
            "--episodes", "6", "--seed", "202", "--out", str(out),
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        keys = list(manifest)
        assert keys.index("eval_envs_in_dataset") == keys.index("sweep_values") + 1
        assert manifest["eval_envs_in_dataset"] == [counts[0], 0]

    def test_full_matrix_needs_autoencoder(self, tmp_path, dataset_path, encoder_path):
        code = run_cli(
            "eval", "--dataset", dataset_path, "--encoder", encoder_path,
            "--matrix", "full", "--episodes", "1", "--seed", "2",
            "--out", str(tmp_path / "r"),
        )
        assert code == 2  # autoencoder model missing


class TestSweepCommand:
    def test_outputs(self, tmp_path, dataset_path, encoder_path):
        out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--dataset", dataset_path, "--encoder", encoder_path,
            "--param", "reach_max", "--values", "0.40,0.45",
            "--episodes", "2", "--seed", "3", "--out", str(out),
        )
        assert code == 0
        assert (out / "sweep_reach_max.csv").exists()
        assert (out / "sweep_reach_max.svg").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["dataset_config_digest"] and manifest["version"]


class TestTrainCommands:
    def test_train_and_reload(self, tmp_path, dataset_path):
        out = tmp_path / "enc.bin"
        # tiny but real training run through the CLI config plumbing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 1, "batch_anchors": 16}}))
        code = run_cli(
            "train", "--dataset", dataset_path, "--out", str(out),
            "--seed", "4", "--config", str(cfg),
        )
        assert code == 0
        from slackline.encoder import load_params

        params = load_params(str(out))
        assert params.sizes[0] == 40
        sidecar = json.loads((tmp_path / "enc.bin.json").read_text())
        assert len(sidecar["epoch_losses"]) == 1
        assert sidecar["train"]["seed"] == 4

    def test_train_ae_roundtrip(self, tmp_path, dataset_path):
        out = tmp_path / "ae.bin"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps({"train": {"epochs": 1, "batch_anchors": 16, "embed_dim": 8}})
        )
        code = run_cli(
            "train-ae", "--dataset", dataset_path, "--out", str(out),
            "--seed", "4", "--config", str(cfg),
        )
        assert code == 0
        from slackline.cli import load_ae

        ae = load_ae(str(out))
        assert ae.sizes[0] == 40
        assert ae.sizes[3] == 8

    @pytest.mark.parametrize("command, episodes, reason", [
        ("train", 0, "need at least two episodes for negatives"),
        ("train", 1, "need at least two episodes for negatives"),
        ("train-ae", 0, "dataset has no episodes"),
    ])
    def test_too_small_dataset_refused_by_path(self, tmp_path, capsys,
                                               small_dataset, command,
                                               episodes, reason):
        path = tmp_path / "ds.jsonl"
        save_dataset(Dataset(small_dataset.episodes[:episodes],
                             small_dataset.goal_pool, small_dataset.config),
                     str(path))
        out = tmp_path / "model.bin"
        assert run_cli(command, "--dataset", str(path), "--out", str(out)) == 2
        assert f"{path}: {reason}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "train-ae"])
    def test_train_reports_epochs_on_stderr(self, tmp_path, capsys,
                                            dataset_path, command):
        """One stderr line per epoch with its loss; stdout, the model bytes
        and the sidecar are those of training without progress."""
        from slackline.config import TrainConfig
        from slackline.encoder import save_params, train
        from slackline.explore import load_dataset
        from slackline.planner import train_autoencoder

        cfg = TrainConfig(epochs=2, batch_anchors=16, embed_dim=8, seed=4)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"train": {
            "epochs": 2, "batch_anchors": 16, "embed_dim": 8}}))
        out = tmp_path / "model.bin"
        code = run_cli(command, "--dataset", dataset_path, "--out", str(out),
                       "--seed", "4", "--config", str(cfg_path))
        assert code == 0
        captured = capsys.readouterr()
        fit = train if command == "train" else train_autoencoder
        report = fit(load_dataset(dataset_path), cfg)
        assert captured.err.splitlines() == [
            f"{command}: epoch {k}/2 loss {loss:.6f}"
            for k, loss in enumerate(report.epoch_losses, 1)
        ]
        assert len(captured.out.splitlines()) == 1
        assert captured.out.startswith(
            "trained encoder" if command == "train" else "trained autoencoder")
        plain = tmp_path / "plain.bin"
        save_params(report.params, str(plain), cfg, report.epoch_losses)
        assert out.read_bytes() == plain.read_bytes()
        assert ((tmp_path / "model.bin.json").read_bytes()
                == (tmp_path / "plain.bin.json").read_bytes())

    @pytest.mark.parametrize("command", ["train", "train-ae"])
    def test_seed_is_taken_mod_2_63(self, tmp_path, dataset_path, command):
        """A training seed is reduced mod 2**63, as every other command's
        is: -1 trains the model of 2**63 - 1, 2**63 the model of 0, and
        10**400 the model of its remainder."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train": {"epochs": 1, "embed_dim": 8}}))

        def model(seed: int) -> bytes:
            out = tmp_path / "model.bin"
            assert run_cli(command, "--dataset", dataset_path, "--out", str(out),
                           "--seed", str(seed), "--config", str(cfg)) == 0
            return out.read_bytes()

        assert model(-1) == model(2**63 - 1)
        assert model(2**63) == model(0)
        assert model(-1) != model(0)
        # a seed too large to convert to a float
        assert model(10**400) == model(10**400 % 2**63)

    def test_collect_small(self, tmp_path):
        out = tmp_path / "mini.jsonl"
        code = run_cli(
            "collect", "--out", str(out), "--episodes", "2", "--seed", "6",
            "--pool-size", "3",
        )
        assert code == 0
        from slackline.explore import load_dataset

        assert len(load_dataset(str(out)).episodes) == 2

    def test_collect_reports_progress_on_stderr(self, tmp_path, capsys):
        """One stderr line per tenth of --episodes; stdout and the dataset
        bytes are those of a run without progress."""
        from slackline.config import TaskConfig
        from slackline.explore import collect

        out = tmp_path / "mini.jsonl"
        code = run_cli(
            "collect", "--out", str(out), "--episodes", "3", "--seed", "6",
            "--pool-size", "3",
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"collect: {k}/3 episodes" for k in (1, 2, 3)
        ]
        assert len(captured.out.splitlines()) == 1
        assert captured.out.startswith("collected 3 episodes")
        dataset, _ = collect(TaskConfig(), episodes=3, seed=6, pool_size=3)
        plain = tmp_path / "plain.jsonl"
        save_dataset(dataset, str(plain))
        assert out.read_bytes() == plain.read_bytes()

    def test_collect_progress_at_each_tenth(self, capsys):
        from slackline.cli import _print_progress

        for kept in range(1, 26):
            _print_progress(kept, 25)
        assert capsys.readouterr().err.splitlines() == [
            f"collect: {k}/25 episodes" for k in (3, 5, 8, 10, 13, 15, 18, 20, 23, 25)
        ]


class TestRenderCommand:
    def test_render_from_result_file(self, tmp_path, dataset_path, encoder_path):
        """One frame per recorded state."""
        ep = tmp_path / "ep.json"
        run_cli(
            "run", "--dataset", dataset_path, "--encoder", encoder_path,
            "--seed", "5", "--out", str(ep),
        )
        out = tmp_path / "frames"
        code = run_cli("render", "--result", str(ep), "--out", str(out))
        assert code == 0
        result = json.loads(ep.read_text())
        assert len(os.listdir(out)) == result["steps"] + 1

    def test_missing_result_exits_2(self):
        assert run_cli("render", "--result", "/nope.json", "--out", "/tmp/f") == 2


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "slackline.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "collect" in proc.stdout


def test_readme_config_example_uses_defaults(tmp_path):
    from slackline.config import TaskConfig, TrainConfig, load_config_file

    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    example = readme.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "cfg.json"
    path.write_text(example)
    assert load_config_file(str(path)) == (TaskConfig(), TrainConfig())


def test_readme_commands_parse():
    """Every `slackline ...` command in the README's code blocks, with its
    backslash continuations joined, parses with the current flags; none is
    run. Each subcommand appears at least once."""
    import argparse

    from slackline.cli import build_parser

    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md")).read()
    blocks = readme.split("```")[1::2]
    commands = [line for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("slackline ")]
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert {line.split()[1] for line in commands} == set(sub.choices)
    for line in commands:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")


class TestRefusals:
    """Each refusal's exit code and last stderr line, and no --out left
    behind. Inputs load before --values is parsed, so a missing dataset is
    named even when --values is bad too."""

    @pytest.mark.parametrize("argv, code, last", [
        (["eval", "--dataset", "{ds}", "--matrix", "contrastive"], 1,
         "slackline: error: bad cell 'contrastive'; expected planner:controller"),
        (["sweep", "--dataset", "{ds}", "--param", "reach_max",
          "--values", "0.4,abc"], 1,
         "slackline: error: bad --values: could not convert string to float: "
         "'abc'"),
        (["sweep", "--dataset", "{ds}", "--param", "reach_max",
          "--values", ","], 1, "slackline: error: empty --values"),
        (["sweep", "--dataset", "missing.jsonl", "--param", "reach_max",
          "--values", "0.4,nan"], 2,
         "slackline: data error: dataset file not found: missing.jsonl"),
        (["eval", "--dataset", "{ds}", "--config", "nocfg.json"], 2,
         "slackline: data error: config file not found: nocfg.json"),
        (["eval", "--dataset", "{ds}", "--config", "root.json"], 2,
         "slackline: data error: root.json: config root must be a JSON object"),
        (["eval", "--dataset", "{ds}", "--config", "extra.json"], 2,
         "slackline: data error: extra.json: unknown top-level key(s) "
         "['extra']"),
        (["eval", "--dataset", "{ds}", "--config", "bogus.json"], 2,
         "slackline: data error: bogus.json: task: unknown field(s) ['bogus']"),
        (["render", "--result", "result.json"], 2,
         "slackline: data error: result.json: Expecting value: line 1 "
         "column 1 (char 0)"),
        (["run", "--dataset", "{ds}", "--planner", "bogus",
          "--controller", "bogus"], 1,
         "slackline: error: unknown planner 'bogus'; valid: contrastive, "
         "fixed, random, template, autoencoder"),
        (["run", "--dataset", "{ds}", "--controller", "bogus"], 2,
         "slackline: data error: cell needs a trained encoder "
         "(run `slackline train`)"),
        (["sweep", "--dataset", "{ds}", "--param", "reach_max",
          "--values", "0.5,0.4"], 1,
         "slackline: error: bad --values: '0.5,0.4' is not in ascending order"),
        (["eval", "--dataset", "{ds}", "--matrix", "fixed:only-leader",
          "--episodes", "1", "--workers", "-3"], 1,
         "slackline: error: --workers must be >= 1, got -3"),
        (["sweep", "--dataset", "{ds}", "--param", "reach_max",
          "--values", "0.4", "--workers", "0"], 1,
         "slackline: error: --workers must be >= 1, got 0"),
    ])
    def test_exit_code_and_message(self, tmp_path, monkeypatch, capsys,
                                   dataset_path, argv, code, last):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "root.json").write_text("[1]")
        (tmp_path / "extra.json").write_text('{"extra": 1}')
        (tmp_path / "bogus.json").write_text('{"task": {"bogus": 1}}')
        (tmp_path / "result.json").write_text("not json")
        argv = [a.format(ds=dataset_path) for a in argv]
        assert run_cli(*argv, "--out", "out") == code
        assert capsys.readouterr().err.splitlines()[-1] == last
        assert not (tmp_path / "out").exists()


# Every option of every subcommand: (default, type, required).
CLI_SURFACE = {
    "collect": {
        ("--config",): (None, None, False),
        ("--episodes",): (1000, int, False),
        ("--out",): (None, None, True),
        ("--pool-size",): (200, int, False),
        ("--seed",): (0, int, False),
    },
    "train": {
        ("--config",): (None, None, False),
        ("--dataset",): (None, None, True),
        ("--out",): (None, None, True),
        ("--seed",): (None, int, False),
    },
    "train-ae": {
        ("--config",): (None, None, False),
        ("--dataset",): (None, None, True),
        ("--out",): (None, None, True),
        ("--seed",): (None, int, False),
    },
    "run": {
        ("--autoencoder",): (None, None, False),
        ("--config",): (None, None, False),
        ("--controller",): ("leader-follower", None, False),
        ("--dataset",): (None, None, True),
        ("--encoder",): (None, None, False),
        ("--out",): (None, None, False),
        ("--planner",): ("contrastive", None, False),
        ("--seed",): (0, int, False),
    },
    "eval": {
        ("--autoencoder",): (None, None, False),
        ("--config",): (None, None, False),
        ("--dataset",): (None, None, True),
        ("--encoder",): (None, None, False),
        ("--episodes",): (500, int, False),
        ("--matrix",): ("full", None, False),
        ("--out",): (None, None, True),
        ("--seed",): (0, int, False),
        ("--workers",): (1, int, False),
    },
    "sweep": {
        ("--autoencoder",): (None, None, False),
        ("--config",): (None, None, False),
        ("--dataset",): (None, None, True),
        ("--encoder",): (None, None, False),
        ("--episodes",): (500, int, False),
        ("--out",): (None, None, True),
        ("--param",): (None, None, True),
        ("--seed",): (0, int, False),
        ("--values",): (None, None, True),
        ("--workers",): (1, int, False),
    },
    "render": {
        ("--config",): (None, None, False),
        ("--out",): (None, None, True),
        ("--result",): (None, None, True),
    },
}


def test_cli_surface():
    """Every subcommand keeps each option's strings, default, type and
    required flag; help order is free."""
    import argparse

    from slackline.cli import build_parser

    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {tuple(a.option_strings): (a.default, a.type, a.required)
               for a in parser._actions
               if not isinstance(a, argparse._HelpAction)}
        for name, parser in sub.choices.items()
    }
    assert surface == CLI_SURFACE


@pytest.mark.parametrize("cell", ["contrastive:leader-follower",
                                  "fixed:only-leader"])
def test_run_is_episode_0_of_eval(tmp_path, dataset_path, encoder_path, cell):
    """`run --seed s` writes the first line of the cell's results file from
    `eval --seed s`."""
    planner, controller = cell.split(":")
    common = ["--dataset", dataset_path, "--encoder", encoder_path,
              "--seed", "7"]
    assert run_cli("run", *common, "--planner", planner,
                   "--controller", controller,
                   "--out", str(tmp_path / "run.json")) == 0
    assert run_cli("eval", *common, "--matrix", cell, "--episodes", "2",
                   "--out", str(tmp_path / "eval")) == 0
    results = tmp_path / "eval" / f"results_{planner}+{controller}.jsonl"
    first = results.read_bytes().splitlines(keepends=True)[0]
    assert (tmp_path / "run.json").read_bytes() == first


@pytest.mark.parametrize("argv", [
    ["collect", "--episodes", "1", "--seed", "6", "--pool-size", "3"],
    ["train", "--dataset", "{ds}", "--config", "{cfg}"],
    ["train-ae", "--dataset", "{ds}", "--config", "{cfg}"],
    ["run", "--dataset", "{ds}", "--planner", "template"],
], ids=lambda argv: argv[0])
def test_out_parent_is_created(tmp_path, dataset_path, argv):
    """A file --out in a directory that does not exist yet is written, not
    refused after the work is done."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"epochs": 1, "batch_anchors": 16,
                                         "embed_dim": 8}}))
    argv = [a.format(ds=dataset_path, cfg=cfg) for a in argv]
    out = tmp_path / "new" / "dir" / "out"
    assert run_cli(*argv, "--out", str(out)) == 0
    assert out.stat().st_size > 0


@pytest.fixture(scope="module")
def result_path(tmp_path_factory, dataset_path):
    path = tmp_path_factory.mktemp("cli-run") / "ep.json"
    assert run_cli("run", "--dataset", dataset_path, "--planner", "template",
                   "--out", str(path)) == 0
    return str(path)


@pytest.mark.parametrize("argv, writes", [
    (["collect", "--episodes", "1", "--seed", "6", "--pool-size", "3"], "a file"),
    (["train", "--dataset", "{ds}", "--config", "{cfg}"], "a file"),
    (["train-ae", "--dataset", "{ds}", "--config", "{cfg}"], "a file"),
    (["run", "--dataset", "{ds}", "--planner", "template"], "a file"),
    (["eval", "--dataset", "{ds}", "--matrix", "fixed:only-leader",
      "--episodes", "1"], "a directory"),
    (["sweep", "--dataset", "{ds}", "--encoder", "{enc}", "--param",
      "reach_max", "--values", "0.45", "--episodes", "1"], "a directory"),
    (["render", "--result", "{res}"], "a directory"),
], ids=lambda argv: argv[0] if isinstance(argv, list) else None)
def test_out_of_the_other_kind_is_refused(tmp_path, monkeypatch, capsys,
                                          dataset_path, encoder_path,
                                          result_path, argv, writes):
    """An --out that exists as the other kind (a directory where the
    command writes a file, a file where it writes a directory) is refused
    as a usage error before anything is loaded, and left as it was."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"train": {"epochs": 1}}))
    if writes == "a file":
        (tmp_path / "out").mkdir()
    else:
        (tmp_path / "out").write_text("kept")
    argv = [a.format(ds=dataset_path, cfg="cfg.json", enc=encoder_path,
                     res=result_path) for a in argv]
    assert run_cli(*argv, "--out", "out") == 1
    found = "a file" if writes == "a directory" else "a directory"
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"slackline: error: --out out is {found}; {argv[0]} writes {writes} "
        f"there")
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "out"]
    if writes == "a file":
        assert os.listdir(tmp_path / "out") == []
    else:
        assert (tmp_path / "out").read_text() == "kept"


@pytest.mark.parametrize("argv", [
    ["collect", "--episodes", "1", "--seed", "6", "--pool-size", "3"],
    ["render", "--result", "{res}"],
], ids=lambda argv: argv[0])
def test_out_below_a_file_is_refused(tmp_path, monkeypatch, capsys, result_path,
                                     argv):
    """An --out below an existing file could not be created: it is refused
    as a usage error before anything is loaded."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "f").write_text("kept")
    argv = [a.format(res=result_path) for a in argv]
    assert run_cli(*argv, "--out", "f/new/out") == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "slackline: error: --out f/new/out lies below the file f")
    assert os.listdir(tmp_path) == ["f"]
    assert (tmp_path / "f").read_text() == "kept"
