import argparse
import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from helpers import rewrite_checkpoint

from skipgru import cli, data, errors, glove, metrics, model, training
from skipgru.errors import ConfigError
from skipgru.model import VariantConfig


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(argv):
    return cli.main(argv)


class TestUsage:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "skipgru" in capsys.readouterr().out

    def test_invalid_flag_exits_two(self, capsys):
        assert run(["gen-data", "--no-such-flag"]) == 2

    def test_unknown_command_exits_two(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_readme_names_every_flag_on_its_subcommand_line(self):
        lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
        commands = next(action for action in cli.build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction)).choices
        for name, parser in commands.items():
            line = next((line for line in lines if line.startswith(f"- `{name}`")), "")
            missing = [flag for action in parser._actions for flag in action.option_strings
                       if flag.startswith("--") and flag != "--help" and f"`{flag}`" not in line]
            assert not missing, f"README's `{name}` line does not name {missing}"


class TestModuleEntryPoints:
    """``python -m skipgru`` and ``python -m skipgru.cli`` run the CLI from a
    checkout, with only the source directory on the import path."""

    @staticmethod
    def run_module(module, *argv, cwd):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        return subprocess.run([sys.executable, "-m", module, *argv], cwd=cwd, env=env,
                              capture_output=True, text=True, timeout=120)

    @pytest.mark.parametrize("module", ["skipgru", "skipgru.cli"])
    def test_usage_error_exits_two(self, module, tmp_path):
        done = self.run_module(module, "gen-data", "--no-such-flag", cwd=tmp_path)
        assert done.returncode == 2 and "usage:" in done.stderr

    @pytest.mark.parametrize("module", ["skipgru", "skipgru.cli"])
    def test_missing_input_exits_three(self, module, tmp_path):
        done = self.run_module(module, "evaluate", "--truth", "nope", "--submission", "nope",
                               cwd=tmp_path)
        assert done.returncode == 3 and "nope" in done.stderr

    def test_gen_data_writes_its_files(self, tmp_path):
        done = self.run_module("skipgru", "gen-data", "--out-dir", "d", "--sessions", "12",
                               "--tracks", "50", "--holdout", "3", cwd=tmp_path)
        assert done.returncode == 0 and "sessions=12" in done.stdout
        for name in ("tracks.csv", "sessions.csv", "sessions_holdout.csv"):
            assert (tmp_path / "d" / name).stat().st_size > 0


class TestExitCodeByErrorFamily:
    """Every error class of the package leaves ``main`` as its family's exit
    code and one ``error:`` line: 4 for a numeric or training failure, 3 for
    any other."""

    CLASSES = [cls for cls in vars(errors).values()
               if isinstance(cls, type) and issubclass(cls, errors.SkipGruError)]

    @pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
    def test_exits_by_family_with_one_error_line(self, monkeypatch, capsys, cls):
        def failing_stage(path):
            raise cls(f"{path}: stage failed")

        monkeypatch.setattr(cli, "_load_truth", failing_stage)
        code = run(["evaluate", "--truth", "truth.csv", "--submission", "sub.txt"])
        assert code == (4 if issubclass(cls, (errors.NumericError, errors.TrainingError)) else 3)
        err = capsys.readouterr().err
        assert err == "error: truth.csv: stage failed\n" and "Traceback" not in err


class TestGenData:
    def test_deterministic_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["gen-data", "--sessions", "30", "--tracks", "50", "--seed", "7"]
        assert run(argv + ["--out-dir", str(a)]) == 0
        assert run(argv + ["--out-dir", str(b)]) == 0
        assert sha256(a / "sessions.csv") == sha256(b / "sessions.csv")
        assert sha256(a / "tracks.csv") == sha256(b / "tracks.csv")

    def test_files_match_their_pinned_digests(self, tmp_path, capsys):
        # pinned digests: a change to the generator's draw order or to the
        # file format changes them
        assert run(["gen-data", "--out-dir", str(tmp_path), "--sessions", "30", "--tracks", "50",
                    "--seed", "7", "--holdout", "5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "events=450"
        assert {name: sha256(tmp_path / name) for name in sorted(os.listdir(tmp_path))} == {
            "sessions.csv": "e2b2109588486ff32158e3f9bc5dc0091621f1d66e31a956a47f6781c3212431",
            "sessions_holdout.csv":
                "07845a677ffb16de4fec2889dedef969d28f70bd07ad834e89c625fd411edfb3",
            "tracks.csv": "f38343453a691e92b2e617483a528bbb3a0d8f2bce6207cd6fd989b6bfd3ace1",
        }

    def test_summary_counts(self, tmp_path, capsys):
        assert run(["gen-data", "--out-dir", str(tmp_path / "d"), "--sessions", "25",
                    "--tracks", "50", "--holdout", "5"]) == 0
        out = capsys.readouterr().out
        assert "sessions=25" in out
        assert "holdout_sessions=5" in out
        assert (tmp_path / "d" / "sessions_holdout.csv").exists()

    def test_track_bound_is_config_error(self, tmp_path, capsys):
        assert run(["gen-data", "--out-dir", str(tmp_path), "--tracks", "10"]) == 3
        assert "50" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,named", [
        (["--sessions", "0"], "--sessions must be >= 1"),
        (["--sessions", "0", "--holdout", "5"], "--sessions must be >= 1"),
        (["--sessions", "100", "--holdout", "-5"], "--holdout must be >= 0"),
        (["--noise", "3"], "label_noise must be in [0, 1]"),
        (["--noise", "-0.5"], "label_noise must be in [0, 1]"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
    ])
    def test_bad_counts_exit_three_and_write_nothing(self, tmp_path, capsys, flags, named):
        out = tmp_path / "d"
        assert run(["gen-data", "--out-dir", str(out), "--tracks", "50", *flags]) == 3
        assert named in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_noise_endpoints_accepted(self, tmp_path, capsys):
        for noise in ("0", "1"):
            out = tmp_path / noise
            assert run(["gen-data", "--out-dir", str(out), "--sessions", "3", "--tracks", "50",
                        "--noise", noise]) == 0
            assert (out / "sessions.csv").stat().st_size > 0


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + embed once for the command tests."""
    root = tmp_path_factory.mktemp("cli")
    assert run(["gen-data", "--out-dir", str(root), "--sessions", "60",
                "--tracks", "50", "--acoustic-dim", "3", "--seed", "5",
                "--holdout", "8"]) == 0
    assert run(["embed", "--sessions", str(root / "sessions.csv"),
                "--out", str(root / "emb.txt"), "--dims", "8",
                "--epochs", "4", "--seed", "1"]) == 0
    return root


class TestEmbed:
    def test_deterministic(self, workspace, tmp_path, capsys):
        out = tmp_path / "emb2.txt"
        assert run(["embed", "--sessions", str(workspace / "sessions.csv"),
                    "--out", str(out), "--dims", "8", "--epochs", "4",
                    "--seed", "1"]) == 0
        assert sha256(out) == sha256(workspace / "emb.txt")

    def test_loss_log_emitted(self, workspace, tmp_path, capsys):
        assert run(["embed", "--sessions", str(workspace / "sessions.csv"),
                    "--out", str(tmp_path / "e.txt"), "--dims", "4",
                    "--epochs", "3"]) == 0
        out = capsys.readouterr().out
        assert out.count("loss=") == 3
        assert "loss_decreased=true" in out

    def test_missing_sessions_path(self, tmp_path, capsys):
        assert run(["embed", "--sessions", str(tmp_path / "nope.csv"),
                    "--out", str(tmp_path / "e.txt")]) == 3

    @pytest.mark.parametrize("flag, value", [
        ("--dims", "0"), ("--dims", "-3"), ("--epochs", "0"), ("--lr", "-1"),
        ("--lr", "nan"), ("--x-max", "0"), ("--x-max", "inf"), ("--alpha", "-0.5"),
        ("--seed", "-1"),
    ])
    def test_bad_flag_exits_three(self, workspace, tmp_path, capsys, flag, value):
        out = tmp_path / "e.txt"
        assert run(["embed", "--sessions", str(workspace / "sessions.csv"),
                    "--out", str(out), "--dims", "4", "--epochs", "1", flag, value]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag.lstrip("-").replace("-", "_") in err
        assert "Traceback" not in err and not out.exists()


    @pytest.mark.parametrize("track_id", ["t 00001", ""])
    def test_track_id_the_embedding_file_cannot_hold_exits_three(self, workspace, tmp_path,
                                                                 capsys, track_id):
        sessions = _with_field(workspace / "sessions.csv", tmp_path / "sessions.csv",
                               2, 2, f'"{track_id}"')
        out = tmp_path / "e.txt"
        assert run(["embed", "--sessions", str(sessions), "--out", str(out),
                    "--dims", "4", "--epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(track_id) in err
        assert "Traceback" not in err and not out.exists()


    @pytest.mark.parametrize("rows", ["none", "one track per session"])
    def test_empty_cooccurrence_table_exits_three(self, workspace, tmp_path, capsys, rows):
        header, *lines = (workspace / "sessions.csv").read_text().splitlines()
        if rows == "none":
            lines = []
        else:
            lines = [",".join([*fields[:2], "t00001", *fields[3:]])
                     for fields in (line.split(",") for line in lines)]
        sessions, out = tmp_path / "sessions.csv", tmp_path / "e.txt"
        sessions.write_text("\n".join([header, *lines]) + "\n")
        assert run(["embed", "--sessions", str(sessions), "--out", str(out),
                    "--dims", "4", "--epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: {sessions}: cannot train embeddings on an empty co-occurrence "
                       f"table (no session plays two distinct tracks)\n")
        assert not out.exists()

    def test_unholdable_track_id_is_rejected_before_glove_runs(self, workspace, tmp_path,
                                                               capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("train_glove ran")

        monkeypatch.setattr(cli.glove, "train_glove", refuse)
        sessions = _with_field(workspace / "sessions.csv", tmp_path / "sessions.csv",
                               2, 2, '"t 00001"')
        out = tmp_path / "e.txt"
        assert run(["embed", "--sessions", str(sessions), "--out", str(out),
                    "--dims", "4", "--epochs", "1"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr("t 00001") in err and not out.exists()


class TestTrain:
    def test_writes_checkpoint(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(ckpt), "--epochs", "1", "--batch-size", "16",
                    "--hidden-size", "4", "--seed", "3"]) == 0
        assert ckpt.exists()
        loaded = training.load_checkpoint(ckpt)
        assert loaded.metadata["epochs"] == 1

    def test_checkpoint_bytes_do_not_depend_on_the_input_directory(self, workspace, tmp_path):
        # the same inputs, copied under two differently spelled directories
        ckpts = []
        for name in ("a", "b/deeper"):
            root = tmp_path / name
            root.mkdir(parents=True)
            for src in ("sessions.csv", "tracks.csv", "emb.txt"):
                (root / src).write_bytes((workspace / src).read_bytes())
            ckpts.append(root / "model.ckpt")
            assert run(["train", "--sessions", str(root / "sessions.csv"),
                        "--tracks", str(root / "tracks.csv"),
                        "--embeddings", str(root / "emb.txt"),
                        "--out", str(ckpts[-1]), "--epochs", "1", "--batch-size", "16",
                        "--hidden-size", "4", "--seed", "3"]) == 0
        assert ckpts[0].read_bytes() == ckpts[1].read_bytes()
        assert training.load_checkpoint(ckpts[0]).embedding_ref == {
            "sha256": sha256(workspace / "emb.txt")}

    def test_header_with_an_embeddings_path_still_loads(self, workspace, trained, tmp_path,
                                                        capsys):
        old = tmp_path / "old.ckpt"
        rewrite_checkpoint(trained[0], old, lambda envelope: envelope["payload"][
            "embedding_ref"].update(path="data/emb.txt"))
        assert training.load_checkpoint(old).embedding_ref["path"] == "data/emb.txt"
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(old),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"), "--out", str(sub)]) == 0
        assert len(sub.read_text().splitlines()) == 8

    def test_zero_epochs_writes_init_checkpoint(self, workspace, tmp_path):
        ckpt = tmp_path / "init.ckpt"
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(ckpt), "--epochs", "0",
                    "--hidden-size", "4"]) == 0
        loaded = training.load_checkpoint(ckpt)
        assert loaded.metadata["best_val_aa"] is None

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        config = {
            "paths": {
                "sessions": str(workspace / "sessions.csv"),
                "tracks": str(workspace / "tracks.csv"),
                "embeddings": str(workspace / "emb.txt"),
            },
            "model": {"hidden_size": 4},
            "training": {"epochs": 0, "batch_size": 16, "seed": 2},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(config))
        ckpt = tmp_path / "cfg.ckpt"
        assert run(["train", "--config", str(cfg_path), "--out", str(ckpt),
                    "--epochs", "1"]) == 0
        assert training.load_checkpoint(ckpt).metadata["epochs"] == 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"training": {"learning_rate": 0.1}}))
        assert run(["train", "--config", str(cfg_path), "--out",
                    str(tmp_path / "x.ckpt")]) == 3
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("embed", "glove", "dims", "8"),
        ("train", "training", "batch_size", "16"),
        ("train", "model", "hidden_size", "8"),
        ("embed", "glove", "seed", 1.5),
        ("train", "training", "epochs", True),
        ("train", "training", "lr", "0.1"),
        ("train", "model", "use_batchnorm", 1),
        ("train", "paths", "sessions", 3),
    ])
    def test_mistyped_config_value_exits_three(self, tmp_path, capsys, command, section,
                                               key, value):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg_path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{section}'" in err and f"'{key}'" in err
        assert "Traceback" not in err and not out.exists()

    def test_int_fits_float_and_null_fits_optional(self, tmp_path):
        cfg_path = tmp_path / "ok.json"
        cfg_path.write_text(json.dumps({"glove": {"lr": 1, "x_max": 50},
                                        "training": {"clip_norm": None, "lr": 1}}))
        config = cli.load_config(cfg_path)
        assert config.glove.lr == 1 and config.glove.x_max == 50
        assert config.training.clip_norm is None and config.training.lr == 1

    def test_unknown_config_section_rejected(self, tmp_path):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"optimizer": {}}))
        with pytest.raises(ConfigError):
            cli.load_config(cfg_path)

    def test_missing_required_path(self, tmp_path, capsys):
        assert run(["train", "--out", str(tmp_path / "x.ckpt")]) == 3
        assert "sessions" in capsys.readouterr().err

    def test_non_finite_track_duration_exits_three(self, workspace, tmp_path, capsys):
        lines = (workspace / "tracks.csv").read_text().splitlines()
        parts = lines[4].split(",")
        parts[1] = "nan"
        lines[4] = ",".join(parts)
        tracks = tmp_path / "tracks.csv"
        tracks.write_text("\n".join(lines) + "\n")
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(tracks), "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]) == 3
        err = capsys.readouterr().err
        assert "line 5" in err and "duration" in err

    @pytest.mark.parametrize("flag, value", [
        ("--clip-norm", "0"), ("--clip-norm", "-1"), ("--clip-norm", "nan"),
        ("--lr", "nan"), ("--lr", "inf"), ("--seed", "-1"),
    ])
    def test_bad_flag_exits_three(self, workspace, tmp_path, capsys, flag, value):
        ckpt = tmp_path / "x.ckpt"
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(ckpt), "--epochs", "1", "--hidden-size", "4",
                    flag, value]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flag.lstrip("-").replace("-", "_") in err
        assert "Traceback" not in err and not ckpt.exists()

    def test_numeric_abort_exits_four(self, workspace, tmp_path, capsys, monkeypatch):
        from skipgru import cli as cli_mod
        from skipgru.errors import TrainingError

        def explode(*args, **kwargs):
            raise TrainingError("aborting: non-finite value in epoch 1, batch 0")

        monkeypatch.setattr(cli_mod.training, "train", explode)
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "1"]) == 4
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("name, flag, line_no", [("sessions.csv", "--sessions", 40),
                                                      ("tracks.csv", "--tracks", 7)])
    def test_field_over_the_csv_size_limit_exits_three(self, workspace, tmp_path, capsys,
                                                       name, flag, line_no):
        bad = _with_field(workspace / name, tmp_path / name, line_no, 0, "x" * 200_000)
        argv = ["train", "--sessions", str(workspace / "sessions.csv"),
                "--tracks", str(workspace / "tracks.csv"),
                "--embeddings", str(workspace / "emb.txt"),
                "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]
        argv[argv.index(flag) + 1] = str(bad)
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line {line_no}: field larger than field limit")
        assert "Traceback" not in err

    def test_release_year_over_64_bits_exits_three(self, workspace, tmp_path, capsys):
        tracks = _with_field(workspace / "tracks.csv", tmp_path / "tracks.csv", 5, 2, "9" * 400)
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(tracks), "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: line 5: column 'release_year' does not fit in 64 bits")

    def test_release_year_with_a_plus_sign_exits_three(self, workspace, tmp_path, capsys):
        tracks = _with_field(workspace / "tracks.csv", tmp_path / "tracks.csv", 5, 2, "+1999")
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(tracks), "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]) == 3
        err = capsys.readouterr().err
        assert err == "error: line 5: column 'release_year' is not an integer: '+1999'\n"

    @pytest.mark.parametrize("column, name, raw", [
        (1, "duration", " 7 "), (1, "duration", "+300.5"), (3, "acoustic_0", '"\t0.5\n"'),
        (5, "acoustic_2", "+1e-3")])
    def test_blank_or_plus_around_a_track_float_exits_three(self, workspace, tmp_path, capsys,
                                                             column, name, raw):
        tracks = _with_field(workspace / "tracks.csv", tmp_path / "tracks.csv", 5, column, raw)
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(tracks), "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: line 5: column '{name}' is not a number: {raw.strip(chr(34))!r}\n"

    @pytest.mark.parametrize("column", [2, 5])
    def test_plus_before_an_embedding_value_exits_three(self, workspace, tmp_path, capsys,
                                                        column):
        lines = (workspace / "emb.txt").read_text().splitlines()
        tokens = lines[2].split()
        tokens[column - 1] = "+" + tokens[column - 1].lstrip("-")
        lines[2] = " ".join(tokens)
        embeddings = tmp_path / "emb.txt"
        embeddings.write_text("\n".join(lines) + "\n")
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(workspace / "tracks.csv"), "--embeddings", str(embeddings),
                    "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: line 3: non-numeric embedding value in column {column}\n"

    @pytest.mark.parametrize("name, flag, line_no, column", [
        ("tracks.csv", "--tracks", 5, 2), ("sessions.csv", "--sessions", 12, 1)])
    def test_numeral_past_the_int_digit_limit_exits_three(self, workspace, tmp_path, capsys,
                                                          name, flag, line_no, column):
        # 5,000 digits is past the digit limit of Python's int(); a quoted
        # field sends sessions.csv to the csv reader
        value = '"' + "9" * 5000 + '"' if name == "sessions.csv" else "9" * 5000
        bad = _with_field(workspace / name, tmp_path / name, line_no, column, value)
        argv = ["train", "--sessions", str(workspace / "sessions.csv"),
                "--tracks", str(workspace / "tracks.csv"),
                "--embeddings", str(workspace / "emb.txt"),
                "--out", str(tmp_path / "x.ckpt"), "--epochs", "0"]
        argv[argv.index(flag) + 1] = str(bad)
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: line {line_no}: column ") and "does not fit in 64 bits" in err
        assert len(err) < 200 and "Traceback" not in err


class StopAfterConfig(Exception):
    pass


# per (command, config section): field -> (file value, flags, value the flag gives)
FLAG_OVER_FILE = {
    ("train", "model"): {
        "activation": ("elu", ["--activation", "relu"], "relu"),
        "hidden_size": (8, ["--hidden-size", "16"], 16),
        "use_batchnorm": (True, ["--no-batchnorm"], False),
    },
    ("train", "training"): {
        "batch_size": (16, ["--batch-size", "32"], 32),
        "epochs": (2, ["--epochs", "3"], 3),
        "lr": (0.01, ["--lr", "0.02"], 0.02),
        "seed": (1, ["--seed", "2"], 2),
        "clip_norm": (1.0, ["--clip-norm", "2"], 2.0),
        "val_fraction": (0.2, ["--val-fraction", "0.3"], 0.3),
    },
    ("embed", "glove"): {
        "dims": (8, ["--dims", "16"], 16),
        "window": (3, ["--window", "4"], 4),
        "epochs": (2, ["--epochs", "3"], 3),
        "x_max": (10.0, ["--x-max", "20"], 20.0),
        "alpha": (0.5, ["--alpha", "0.6"], 0.6),
        "lr": (0.1, ["--lr", "0.2"], 0.2),
        "seed": (1, ["--seed", "2"], 2),
    },
    ("embed", "paths"): {
        "sessions": ("a.csv", ["--sessions", "b.csv"], "b.csv"),
        "embeddings": ("a.txt", ["--out", "b.txt"], "b.txt"),
    },
}


class TestConfigSections:
    """Each setting is declared once: a config section is the library's own
    type, and a flag sets the section field named by its ``dest``."""

    @staticmethod
    def resolved(monkeypatch, argv):
        """The ``RunConfig`` that ``argv``'s subcommand resolves, flags applied."""
        seen = []
        resolve = cli._config_for

        def capture(args, *flagged):
            seen.append(resolve(args, *flagged))
            raise StopAfterConfig
        with monkeypatch.context() as patch, pytest.raises(StopAfterConfig):
            patch.setattr(cli, "_config_for", capture)
            run(argv)
        return seen[0]

    @pytest.mark.parametrize("command, section, cls", [
        ("train", "model", VariantConfig), ("train", "training", cli.TrainSection),
        ("embed", "glove", glove.GloveConfig),
    ])
    def test_every_field_has_a_flag_of_its_name(self, command, section, cls):
        args = cli.build_parser().parse_args([command])
        names = [f.name for f in fields(cls)]
        assert all(getattr(args, name, "no flag") is None for name in names)
        assert sorted(FLAG_OVER_FILE[command, section]) == sorted(names)

    @pytest.mark.parametrize("command, section, key", [
        (command, section, key) for (command, section), table in FLAG_OVER_FILE.items()
        for key in table
    ])
    def test_flag_wins_over_the_file(self, tmp_path, monkeypatch, command, section, key):
        file_value, flags, flag_value = FLAG_OVER_FILE[command, section][key]
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps({section: {key: file_value}}))
        argv = [command, "--config", str(cfg_path)]
        from_file = self.resolved(monkeypatch, argv)
        assert getattr(getattr(from_file, section), key) == file_value
        flagged = self.resolved(monkeypatch, argv + flags)
        assert getattr(getattr(flagged, section), key) == flag_value
        assert flagged == replace(from_file, **{section: replace(
            getattr(from_file, section), **{key: flag_value})})

    def test_readme_example_holds_the_defaults(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        example = readme.split("## Configuration file", 1)[1].split("```json\n", 1)[1]
        cfg_path = tmp_path / "readme.json"
        cfg_path.write_text(example.split("```", 1)[0])
        config, defaults = cli.load_config(cfg_path), cli.RunConfig.defaults()
        assert config.model == defaults.model
        assert config.training == defaults.training
        assert config.glove == defaults.glove

    @pytest.mark.parametrize("section, key, value, flag", [
        ("model", "hidden_size", 0, ["--hidden-size", "4"]),
        ("training", "val_fraction", 1.5, ["--val-fraction", "0.2"]),
    ])
    @pytest.mark.parametrize("argv, overridden", [
        (["embed"], False), (["predict", "--model", "m.ckpt"], False), (["train"], False),
        (["train"], True),
    ])
    def test_out_of_range_value_exits_three_when_read(self, tmp_path, capsys, section, key,
                                                      value, flag, argv, overridden):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: {key: value}}))
        out = tmp_path / "out"
        argv = argv + ["--config", str(cfg_path), "--out", str(out)] + (flag if overridden else [])
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("model", "hidden_size", 0, "hidden_size must be positive, got 0"),
        ("training", "val_fraction", 1.5, "val_fraction must be in (0, 1), got 1.5"),
    ])
    def test_range_error_names_the_file_and_section(self, tmp_path, capsys, section, key,
                                                     value, message):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({section: {key: value}}))
        assert run(["embed", "--config", str(cfg_path)]) == 3
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: config section '{section}': {message}\n")

    @pytest.mark.parametrize("key, value, message", [
        ("dims", 0, "glove dims and epochs must be >= 1, got dims=0, epochs=25"),
        ("epochs", 0, "glove dims and epochs must be >= 1, got dims=150, epochs=0"),
        ("window", 0, "glove window must be >= 1, got 0"),
        ("seed", -1, "glove seed must be >= 0, got -1"),
        ("lr", 0, "glove lr must be finite and positive, got 0"),
        ("x_max", float("inf"), "glove x_max must be finite and positive, got inf"),
        ("alpha", -0.5, "glove alpha must be finite and positive, got -0.5"),
    ])
    @pytest.mark.parametrize("argv", [["embed"], ["train"], ["predict", "--model", "m.ckpt"]])
    def test_glove_range_error_exits_three_when_read(self, tmp_path, capsys, key, value,
                                                     message, argv):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"glove": {key: value}}))
        out = tmp_path / "out"
        assert run(argv + ["--config", str(cfg_path), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            f"error: {cfg_path}: config section 'glove': {message}\n")
        assert not out.exists()

    def test_unknown_activation_flag_is_a_usage_error(self, capsys):
        assert run(["train", "--activation", "tanh"]) == 2


def _with_field(src, dst, line_no, column, value):
    """Copy a csv file whose fields hold no comma, setting one field of one line."""
    lines = src.read_text().splitlines()
    parts = lines[line_no - 1].split(",")
    parts[column] = value
    lines[line_no - 1] = ",".join(parts)
    dst.write_text("\n".join(lines) + "\n")
    return dst


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    root = tmp_path_factory.mktemp("trained")
    paths = []
    for k, extra in enumerate((["--activation", "relu"], ["--activation", "elu"])):
        ckpt = root / f"m{k}.ckpt"
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--embeddings", str(workspace / "emb.txt"),
                    "--out", str(ckpt), "--epochs", "1", "--batch-size", "16",
                    "--hidden-size", "4", "--seed", str(k)] + extra) == 0
        paths.append(ckpt)
    return paths


def writing_to(command, workspace, trained, out):
    """argv of a short ``command`` run that writes its output to ``out``;
    ``evaluate-per-session`` and ``evaluate-breakdown`` are ``evaluate`` with
    that flag."""
    sessions, tracks = str(workspace / "sessions.csv"), str(workspace / "tracks.csv")
    holdout = workspace / "sessions_holdout.csv"
    if command.startswith("evaluate"):
        submission = out.parent.parent / "truth.txt"
        metrics.write_submission(submission, metrics.second_half_truth(
            data.load_sessions(holdout, None, mode="train")))
        flag = command.replace("evaluate", "")
        return ["evaluate", "--truth", str(holdout), "--submission", str(submission),
                flag, str(out)]
    return {
        "embed": ["embed", "--sessions", sessions, "--out", str(out), "--dims", "4",
                  "--epochs", "1"],
        "train": ["train", "--sessions", sessions, "--tracks", tracks,
                  "--embeddings", str(workspace / "emb.txt"), "--out", str(out),
                  "--epochs", "1", "--batch-size", "16", "--hidden-size", "4"],
        "predict": ["predict", "--model", str(trained[0]), "--sessions", str(holdout),
                    "--tracks", tracks, "--out", str(out)],
    }[command]


def _refuse_stage_work(monkeypatch):
    """Make every stage's first read fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a stage read its input")

    for owner, name in [(data, "load_sessions"), (data, "load_tracks"), (data, "open_text"),
                        (training, "load_checkpoint"), (metrics, "read_submission")]:
        monkeypatch.setattr(owner, name, refuse)


each_writer = pytest.mark.parametrize(
    "command", ["embed", "train", "predict", "evaluate--per-session", "evaluate--breakdown"])


class TestOutputPaths:
    """Every output path is treated alike before its stage does any work: its
    parent directories are made, and a path that is a directory exits 3 with
    an error naming it."""

    @each_writer
    def test_writes_into_a_fresh_nested_directory(self, workspace, trained, tmp_path, capsys,
                                                  command):
        out = tmp_path / "fresh" / "nested" / "out.txt"
        (tmp_path / "fresh").mkdir()
        assert run(writing_to(command, workspace, trained, out)) == 0
        assert out.is_file() and os.listdir(out.parent) == ["out.txt"]

    def test_gen_data_writes_into_a_fresh_nested_directory(self, tmp_path, capsys):
        out = tmp_path / "fresh" / "nested"
        assert run(["gen-data", "--out-dir", str(out), "--sessions", "5", "--tracks", "50"]) == 0
        assert sorted(os.listdir(out)) == ["sessions.csv", "tracks.csv"]

    @each_writer
    def test_a_directory_fails_before_any_stage_work(self, workspace, trained, tmp_path, capsys,
                                                     monkeypatch, command):
        out = tmp_path / "fresh" / "isdir"
        out.mkdir(parents=True)
        argv = writing_to(command, workspace, trained, out)
        _refuse_stage_work(monkeypatch)
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: output path {str(out)!r} is a directory\n"
        assert os.listdir(out) == []


def _set_flag(argv, flag, value):
    """``argv`` with ``flag``'s value set to ``value``, appended if absent."""
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]


def _spell(path, spelling):
    """Another name of ``path``: itself, a ``sub/..`` detour or a symlink."""
    if spelling == "dotted":
        (path.parent / "sub").mkdir(exist_ok=True)
        return os.path.join(path.parent, "sub", "..", path.name)
    if spelling == "link":
        (path.parent / "alias").symlink_to(path)
        return str(path.parent / "alias")
    return str(path)


spellings = pytest.mark.parametrize("spelling", ["same", "dotted", "link"])


class TestOutputNamingAnInput:
    """An output that is the same file as one of its stage's inputs, or as
    its other output, exits 3 before any work, naming both flags; the input
    keeps its bytes."""

    @spellings
    @pytest.mark.parametrize("command, out_flag, in_flag", [
        ("embed", "--out", "--sessions"), ("embed", "--out", "--config"),
        ("train", "--out", "--sessions"), ("train", "--out", "--tracks"),
        ("train", "--out", "--embeddings"), ("train", "--out", "--config"),
        ("predict", "--out", "--model"), ("predict", "--out", "--sessions"),
        ("predict", "--out", "--tracks"), ("predict", "--out", "--config"),
        ("evaluate--per-session", "--per-session", "--truth"),
        ("evaluate--per-session", "--per-session", "--submission"),
        ("evaluate--breakdown", "--breakdown", "--truth"),
        ("evaluate--breakdown", "--breakdown", "--submission"),
    ])
    def test_exits_three_and_keeps_the_input(self, workspace, trained, tmp_path, capsys,
                                             monkeypatch, command, out_flag, in_flag, spelling):
        argv = writing_to(command, workspace, trained, tmp_path / "out" / "out.txt")
        given = tmp_path / "input"
        if in_flag == "--config":
            given.write_text("{}")
        else:
            shutil.copyfile(argv[argv.index(in_flag) + 1], given)
        before = given.read_bytes()
        out = _spell(given, spelling)
        _set_flag(argv, in_flag, str(given))
        _set_flag(argv, out_flag, out)
        _refuse_stage_work(monkeypatch)
        assert run(argv) == 3
        assert capsys.readouterr().err == (f"error: {out_flag} {out!r} names the same file "
                                           f"as {in_flag} {str(given)!r}\n")
        assert given.read_bytes() == before

    @spellings
    def test_one_file_for_both_evaluate_outputs_exits_three(self, workspace, trained, tmp_path,
                                                            capsys, monkeypatch, spelling):
        per_session = tmp_path / "report.csv"
        argv = writing_to("evaluate--per-session", workspace, trained,
                          tmp_path / "out" / "out.txt")
        _set_flag(argv, "--per-session", str(per_session))
        _set_flag(argv, "--breakdown", breakdown := _spell(per_session, spelling))
        _refuse_stage_work(monkeypatch)
        assert run(argv) == 3
        assert capsys.readouterr().err == (f"error: --breakdown {breakdown!r} names the same "
                                           f"file as --per-session {str(per_session)!r}\n")
        assert not per_session.exists()


class TestAllocationFailure:
    """A size no machine can allocate exits 3 with one ``error:`` line, not a
    traceback. Both sizes ask for exabytes, so the request fails at once and
    nothing is allocated."""

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--hidden-size", "100000000"),
        ("embed", "--dims", "10000000000000000"),
    ])
    def test_exits_three_with_one_error_line(self, workspace, trained, tmp_path, capsys,
                                             command, flag, value):
        out = tmp_path / "out.txt"
        argv = writing_to(command, workspace, trained, out)
        _set_flag(argv, flag, value)
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: Unable to allocate ")
        assert "EiB" in err and err.count("\n") == 1
        assert not out.exists()


class TestPredictAndEvaluate:
    def test_single_model_predict(self, workspace, trained, tmp_path, capsys):
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(trained[0]),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--out", str(sub)]) == 0
        lines = sub.read_text().splitlines()
        assert len(lines) == 8
        assert all(set(line) <= {"0", "1"} for line in lines)

    def test_ensemble_predict(self, workspace, trained, tmp_path, capsys):
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(trained[0]), "--model", str(trained[1]),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--out", str(sub)]) == 0
        assert "models=2" in capsys.readouterr().out

    @staticmethod
    def train_member(workspace, out, embeddings, tracks):
        assert run(["train", "--sessions", str(workspace / "sessions.csv"),
                    "--tracks", str(tracks), "--embeddings", str(embeddings),
                    "--out", str(out), "--epochs", "1", "--batch-size", "16",
                    "--hidden-size", "4", "--seed", "2"]) == 0
        return out

    def test_members_of_different_embedding_widths(self, workspace, trained, tmp_path,
                                                    capsys):
        wide = tmp_path / "emb12.txt"
        assert run(["embed", "--sessions", str(workspace / "sessions.csv"), "--out", str(wide),
                    "--dims", "12", "--epochs", "4", "--seed", "1"]) == 0
        members = [trained[0], self.train_member(workspace, tmp_path / "wide.ckpt", wide,
                                                 workspace / "tracks.csv")]
        capsys.readouterr()
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(members[0]), "--model", str(members[1]),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"), "--out", str(sub)]) == 0
        assert "models=2" in capsys.readouterr().out
        tracks = data.load_tracks(workspace / "tracks.csv")
        sessions = data.load_sessions(workspace / "sessions_holdout.csv", tracks, mode="infer")
        built = [training.load_checkpoint(path).build() for path in members]
        assert [pipeline.d_emb for _, pipeline in built] == [8, 12]
        probs = metrics.ensemble_probs([model.predict_probs(sessions, pipeline, tracks, params)
                                        for params, pipeline in built])
        assert sub.read_text().splitlines() == [
            "".join("1" if p >= 0.5 else "0" for p in probs[sid]) for sid in sorted(probs)]

    def test_member_of_another_acoustic_width_exits_three(self, workspace, trained, tmp_path,
                                                          capsys):
        narrow = tmp_path / "tracks2.csv"
        with open(workspace / "tracks.csv", newline="") as src, \
                open(narrow, "w", newline="") as dst:
            csv.writer(dst).writerows(row[:-1] for row in csv.reader(src))
        member = self.train_member(workspace, tmp_path / "narrow.ckpt",
                                   workspace / "emb.txt", narrow)
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(trained[0]), "--model", str(member),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"), "--out", str(sub)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: member 1: tracks: acoustic dim 3 != fitted dim 2")
        assert not sub.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "2", "-0.1"])
    def test_non_finite_threshold_exits_three(self, workspace, trained, tmp_path, capsys,
                                               value):
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(trained[0]),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--out", str(sub), f"--threshold={value}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "threshold" in err
        assert "Traceback" not in err and not sub.exists()

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_unit_interval_ends_accepted(self, workspace, trained, tmp_path, capsys, value):
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(trained[0]),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--out", str(sub), f"--threshold={value}"]) == 0
        assert len(sub.read_text().splitlines()) == 8

    def test_malformed_checkpoint(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_text("{not a checkpoint")
        assert run(["predict", "--model", str(bad),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--out", str(tmp_path / "s.txt")]) == 3

    @pytest.mark.parametrize("tamper", [
        lambda p: p["variant"].update(dropout=0.5),
        lambda p: p.pop("dims"),
        lambda p: p["pipeline"].pop("scalers"),
        lambda p: p["pipeline"]["scalers"].pop("acoustic_0"),
        lambda p: p["params"]["head.b3"].update(shape="four"),
        lambda p: p["params"]["head.b3"].update(shape=[-1, 1]),
    ], ids=["unknown-variant-key", "missing-dims", "missing-scalers",
                         "missing-acoustic-scaler", "bad-shape", "negative-shape"])
    def test_rehashed_bad_schema_checkpoint(self, workspace, trained, tmp_path, capsys, tamper):
        bad = tmp_path / "rehashed.ckpt"
        rewrite_checkpoint(trained[0], bad, lambda envelope: tamper(envelope["payload"]))
        assert run(["predict", "--model", str(bad),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--out", str(tmp_path / "s.txt")]) == 3
        assert "schema" in capsys.readouterr().err

    def test_evaluate_identity(self, workspace, tmp_path, capsys):
        truth = workspace / "sessions_holdout.csv"
        sessions = data.load_sessions(truth, None, mode="train")
        sub = tmp_path / "perfect.txt"
        metrics.write_submission(sub, metrics.second_half_truth(sessions))
        assert run(["evaluate", "--truth", str(truth), "--submission", str(sub)]) == 0
        out = capsys.readouterr().out
        assert "mean_aa=1.000000" in out
        assert "first_position_accuracy=1.000000" in out

    def test_evaluate_mismatch_nonzero(self, workspace, tmp_path, capsys):
        sub = tmp_path / "short.txt"
        sub.write_text("0101\n")
        assert run(["evaluate", "--truth", str(workspace / "sessions_holdout.csv"),
                    "--submission", str(sub)]) == 3

    @pytest.mark.parametrize("rows, named", [
        (2, "truth row 3 has no submission row"), (4, "row 4 has no truth session"),
    ])
    def test_evaluate_row_count_mismatch_names_where(self, tmp_path, capsys, rows, named):
        truth = tmp_path / "truth.txt"
        truth.write_text("01\n10\n11\n")
        sub = tmp_path / "sub.txt"
        sub.write_text("01\n" * rows)
        assert run(["evaluate", "--truth", str(truth), "--submission", str(sub)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "Traceback" not in err

    def test_evaluate_breakdown(self, workspace, trained, tmp_path, capsys):
        sub = tmp_path / "sub.txt"
        assert run(["predict", "--model", str(trained[0]),
                    "--sessions", str(workspace / "sessions_holdout.csv"),
                    "--tracks", str(workspace / "tracks.csv"),
                    "--out", str(sub)]) == 0
        breakdown = tmp_path / "positions.csv"
        per_session = tmp_path / "per_session.csv"
        assert run(["evaluate", "--truth", str(workspace / "sessions_holdout.csv"),
                    "--submission", str(sub), "--breakdown", str(breakdown),
                    "--per-session", str(per_session)]) == 0
        assert breakdown.read_text().startswith("position,accuracy,count")
        assert per_session.read_text().startswith("session_id,aa")

    def test_submission_truth_rows_are_named_by_line(self, tmp_path, monkeypatch, capsys):
        truth, sub, per_session = (tmp_path / name for name in ("t.txt", "s.txt", "aa.csv"))
        truth.write_text("01\n10\n11\n")
        sub.write_text("01\n11\n00\n")
        assert run(["evaluate", "--truth", str(truth), "--submission", str(sub),
                    "--per-session", str(per_session)]) == 0
        assert per_session.read_text() == ("session_id,aa\nline000001,1.0\n"
                                           "line000002,0.5\nline000003,0.0\n")
        # past line 999,999 every name widens, so the names still sort in line order
        monkeypatch.setattr(metrics, "submission_lines", lambda path: ["1"] * 1_000_001)
        names, _ = cli._load_truth(truth)
        assert names[0] == "line0000001" and names[-1] == "line1000001"

    def test_submission_truth_rows_keep_their_line_across_blank_lines(self, tmp_path):
        truth, sub, per_session = (tmp_path / name for name in ("t.txt", "s.txt", "aa.csv"))
        truth.write_text("01\n\n10\n")
        sub.write_text("01\n00\n")
        assert cli._load_truth(truth) == (["line000001", "line000003"], ["01", "10"])
        assert run(["evaluate", "--truth", str(truth), "--submission", str(sub),
                    "--per-session", str(per_session)]) == 0
        assert per_session.read_text() == "session_id,aa\nline000001,1.0\nline000003,0.25\n"

    def test_evaluate_quoted_sessions_truth(self, workspace, tmp_path, capsys):
        plain = workspace / "sessions_holdout.csv"
        quoted = tmp_path / "quoted.csv"
        with open(plain, newline="") as src, open(quoted, "w", newline="") as dst:
            csv.writer(dst, quoting=csv.QUOTE_ALL).writerows(csv.reader(src))
        assert quoted.read_text().startswith('"session_id","position",')
        sub = tmp_path / "sub.txt"
        _, truth = cli._load_truth(plain)
        metrics.write_submission(sub, ["1" * len(row) for row in truth])
        reports = []
        for path in (plain, quoted):
            assert run(["evaluate", "--truth", str(path), "--submission", str(sub)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and "mean_aa=" in reports[0]

    @pytest.mark.parametrize("side", ["truth", "submission"])
    def test_row_longer_than_a_second_half_exits_three(self, tmp_path, capsys, side):
        files = {"truth": tmp_path / "t.txt", "submission": tmp_path / "s.txt"}
        for name, path in files.items():
            path.write_text("0101\n" + ("01010101010\n" if name == side else "0101\n"))
        assert run(["evaluate", "--truth", str(files["truth"]),
                    "--submission", str(files["submission"])]) == 3
        err = capsys.readouterr().err
        assert err == (f"error: {files[side]}: line 2: 11 predictions, but a second half "
                       "has at most 10\n")

    def test_evaluate_submission_format_truth(self, tmp_path, capsys):
        truth = tmp_path / "truth.txt"
        truth.write_text("01010\n11100\n")
        sub = tmp_path / "sub.txt"
        sub.write_text("01010\n11100\n")
        assert run(["evaluate", "--truth", str(truth), "--submission", str(sub)]) == 0
        assert "mean_aa=1.000000" in capsys.readouterr().out


def _with_bad_byte(src, dst, line_no):
    """Copy a text file, putting a byte that is not UTF-8 at the end of one line."""
    lines = src.read_bytes().split(b"\n")
    lines[line_no - 1] += b"\xff"
    dst.write_bytes(b"\n".join(lines))
    return dst


class TestNonUtf8Input:
    """Each reader turns bytes that are not UTF-8 into a typed error: exit 3."""

    def _argv(self, reader, workspace, trained, tmp):
        ws = {name: str(workspace / name) for name in
              ("sessions.csv", "tracks.csv", "emb.txt", "sessions_holdout.csv")}
        train = ["train", "--sessions", ws["sessions.csv"], "--tracks", ws["tracks.csv"],
                 "--embeddings", ws["emb.txt"], "--out", str(tmp / "m.ckpt"), "--epochs", "0"]
        predict = ["predict", "--model", str(trained[0]), "--sessions", ws["sessions_holdout.csv"],
                   "--tracks", ws["tracks.csv"], "--out", str(tmp / "s.txt")]
        if reader == "checkpoint":
            bad = tmp / "random.ckpt"
            bad.write_bytes(np.random.default_rng(0).bytes(4096))
            return predict[:2] + [str(bad)] + predict[3:], "not UTF-8", bad
        if reader == "config":
            bad = tmp / "run.json"
            bad.write_bytes(b"\xff\xfe{}")
            return train + ["--config", str(bad)], "UTF-8", bad
        if reader == "truth":
            bad = tmp / "truth.txt"
            bad.write_bytes(b"0101\n01\xff1\n")
            return ["evaluate", "--truth", str(bad), "--submission", str(bad)], "line 2", bad
        if reader == "submission":
            bad = tmp / "sub.txt"
            bad.write_bytes(b"0101\n1\xff\n")
            return ["evaluate", "--truth", str(bad.with_name("ok.txt")),
                    "--submission", str(bad)], "line 2", bad
        name, flag, line_no = {"sessions": ("sessions.csv", "--sessions", 40),
                               "tracks": ("tracks.csv", "--tracks", 7),
                               "embeddings": ("emb.txt", "--embeddings", 3)}[reader]
        bad = _with_bad_byte(workspace / name, tmp / name, line_no)
        argv = list(train)
        argv[argv.index(flag) + 1] = str(bad)
        return argv, f"line {line_no}", bad

    @pytest.mark.parametrize("reader", ["checkpoint", "config", "sessions", "tracks",
                                        "embeddings", "submission", "truth"])
    def test_exits_three_without_traceback(self, workspace, trained, tmp_path, capsys, reader):
        argv, expected, bad = self._argv(reader, workspace, trained, tmp_path)
        (tmp_path / "ok.txt").write_text("0101\n1111\n")
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err and expected in err and str(bad) in err


class TestPipelineComposition:
    def test_end_to_end_green(self, tmp_path, capsys):
        root = tmp_path / "flow"
        assert run(["gen-data", "--out-dir", str(root), "--sessions", "70",
                    "--tracks", "50", "--acoustic-dim", "3", "--seed", "11",
                    "--holdout", "10"]) == 0
        assert run(["embed", "--sessions", str(root / "sessions.csv"),
                    "--out", str(root / "emb.txt"), "--dims", "8",
                    "--epochs", "3", "--seed", "0"]) == 0
        assert run(["train", "--sessions", str(root / "sessions.csv"),
                    "--tracks", str(root / "tracks.csv"),
                    "--embeddings", str(root / "emb.txt"),
                    "--out", str(root / "m.ckpt"), "--epochs", "1",
                    "--batch-size", "16", "--hidden-size", "4"]) == 0
        assert run(["predict", "--model", str(root / "m.ckpt"),
                    "--sessions", str(root / "sessions_holdout.csv"),
                    "--tracks", str(root / "tracks.csv"),
                    "--out", str(root / "sub.txt")]) == 0
        assert run(["evaluate", "--truth", str(root / "sessions_holdout.csv"),
                    "--submission", str(root / "sub.txt")]) == 0
        assert "mean_aa=" in capsys.readouterr().out


PROBS_SCRIPT = """
import sys
import numpy as np
from skipgru import data, model, training
ckpt, sessions, tracks, out = sys.argv[1:]
params, pipeline = training.load_checkpoint(ckpt).build()
tracks = data.load_tracks(tracks)
table = data.load_sessions(sessions, tracks, mode="infer")
np.savez(out, **model.predict_probs(table, pipeline, tracks, params))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="BLAS on two threads needs two CPUs")
class TestBlasThreadCount:
    """``train`` and ``predict`` at one and at two BLAS threads, each in a fresh
    process. Bit-equality is not claimed: a multi-threaded product may sum in
    another order. Parameters and probabilities agree within ``TOLERANCE``
    (on this fixture the largest difference measured was 1.1e-16 for both, on
    OpenBLAS 0.3.31), and every decision further than that from the 0.5
    threshold is the same."""

    TOLERANCE = 1e-12

    def run_at(self, threads, root, tmp_path):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "OPENBLAS_NUM_THREADS": str(threads), "OMP_NUM_THREADS": str(threads)}
        ckpt, sub, probs = (tmp_path / f"{name}{threads}" for name in ("model", "sub", "probs"))
        holdout, tracks = str(root / "sessions_holdout.csv"), str(root / "tracks.csv")
        for argv in (["-m", "skipgru", "train", "--sessions", str(root / "sessions.csv"),
                      "--tracks", tracks, "--embeddings", str(root / "emb.txt"),
                      "--out", str(ckpt), "--epochs", "2", "--batch-size", "64",
                      "--hidden-size", "32", "--seed", "4"],
                     ["-m", "skipgru", "predict", "--model", str(ckpt), "--sessions", holdout,
                      "--tracks", tracks, "--out", str(sub)],
                     ["-c", PROBS_SCRIPT, str(ckpt), holdout, tracks, f"{probs}.npz"]):
            done = subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                                  text=True, timeout=300)
            assert done.returncode == 0, done.stderr
        with np.load(f"{probs}.npz") as saved:
            probabilities = dict(saved)
        return (training.load_checkpoint(ckpt).params.arrays(), probabilities,
                sub.read_text().splitlines())

    def test_train_and_predict_agree_within_tolerance(self, tmp_path_factory, tmp_path):
        root = tmp_path_factory.mktemp("threads")
        assert run(["gen-data", "--out-dir", str(root), "--sessions", "240", "--tracks", "60",
                    "--seed", "8", "--holdout", "40"]) == 0
        assert run(["embed", "--sessions", str(root / "sessions.csv"),
                    "--out", str(root / "emb.txt"), "--dims", "16", "--epochs", "2"]) == 0
        (state_1, probs_1, sub_1), (state_2, probs_2, sub_2) = (
            self.run_at(threads, root, tmp_path) for threads in (1, 2))
        assert state_1.keys() == state_2.keys()
        for name in state_1:
            assert np.max(np.abs(state_1[name] - state_2[name])) <= self.TOLERANCE, name
        assert sorted(probs_1) == sorted(probs_2) and len(sub_1) == len(probs_1) == 40
        for sid, line_1, line_2 in zip(sorted(probs_1), sub_1, sub_2, strict=True):
            p_1, p_2 = probs_1[sid], probs_2[sid]
            assert np.max(np.abs(p_1 - p_2)) <= self.TOLERANCE, sid
            clear = np.abs(p_1 - 0.5) > self.TOLERANCE
            decisions = [np.array([c == "1" for c in line]) for line in (line_1, line_2)]
            assert np.array_equal(decisions[0], p_1 >= 0.5)
            assert np.array_equal(decisions[0][clear], decisions[1][clear]), sid
