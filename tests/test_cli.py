import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

from slackline.cli import main
from slackline.explore import save_dataset


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
        path = tmp_path / "ds.jsonl"
        save_dataset(replace(dataset, config=replace(dataset.config, **fields)),
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
        out = tmp_path / "ep.json"
        frames = tmp_path / "frames"
        code = run_cli(
            "run", "--dataset", dataset_path, "--encoder", encoder_path,
            "--seed", "5", "--out", str(out), "--render", str(frames),
        )
        assert code == 0
        result = json.loads(out.read_text())
        svgs = sorted(os.listdir(frames))
        assert len(svgs) == result["steps"] + 1


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
        results = (out / "results_contrastive+leader-follower.jsonl")
        assert len(results.read_text().splitlines()) == 3

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

    def test_collect_small(self, tmp_path):
        out = tmp_path / "mini.jsonl"
        code = run_cli(
            "collect", "--out", str(out), "--episodes", "2", "--seed", "6",
            "--pool-size", "3",
        )
        assert code == 0
        from slackline.explore import load_dataset

        assert len(load_dataset(str(out)).episodes) == 2


class TestRenderCommand:
    def test_render_from_result_file(self, tmp_path, dataset_path, encoder_path):
        ep = tmp_path / "ep.json"
        run_cli(
            "run", "--dataset", dataset_path, "--encoder", encoder_path,
            "--seed", "5", "--out", str(ep),
        )
        out = tmp_path / "frames"
        code = run_cli("render", "--result", str(ep), "--out", str(out))
        assert code == 0
        assert len(os.listdir(out)) > 0

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
