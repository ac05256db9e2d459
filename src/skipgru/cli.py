"""Command-line entry point exposing the full pipeline as subcommands.

    skipgru gen-data  --out-dir data --sessions 2000 --tracks 500 --seed 7
    skipgru embed     --sessions data/sessions.csv --out data/embeddings.txt
    skipgru train     --sessions data/sessions.csv --tracks data/tracks.csv \
                      --embeddings data/embeddings.txt --out model.ckpt
    skipgru predict   --model model.ckpt --sessions held_out.csv \
                      --tracks data/tracks.csv --out submission.txt
    skipgru evaluate  --truth held_out.csv --submission submission.txt

``embed``, ``train`` and ``predict`` accept ``--config FILE``, a JSON file
with the sections ``paths``, ``model`` (a ``model.VariantConfig``),
``training`` (``training.TrainConfig`` plus ``val_fraction``) and ``glove``
(a ``glove.GloveConfig``). Unknown keys and values of the wrong JSON type are
rejected, and the model, training and glove values are range-checked when
the file is read. A flag sets the section field named by its ``dest``;
explicit flags win over config-file values, which win over the built-in
defaults. Each output file's parent directories are made, and an output
path that is a directory, or the same file as one of the stage's inputs or
its other output, is rejected, before a stage does any work. Exit codes:
0 success, 2 usage, 3 data/format error (any package error but a numeric
one, an OS error, or an allocation failure), 4 numeric failure
(``NumericError``, ``TrainingError``).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import data, glove, metrics, training
from .errors import ConfigError, DataError, NumericError, SkipGruError, TrainingError
from .features import FeaturePipeline
from .model import VariantConfig

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool, "None": type(None)}


@dataclass
class PathsConfig:
    sessions: str | None = None
    tracks: str | None = None
    embeddings: str | None = None
    checkpoint_dir: str | None = None


@dataclass
class TrainSection(training.TrainConfig):
    """``training.TrainConfig`` plus the share of sessions held out for validation."""

    val_fraction: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass
class RunConfig:
    paths: PathsConfig
    model: VariantConfig
    training: TrainSection
    glove: glove.GloveConfig

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls(PathsConfig(), VariantConfig(), TrainSection(), glove.GloveConfig())


def _build_section(cls, payload: dict, section: str, path):
    """The ``cls`` of one config section; every error names the file and section."""
    where = f"{path}: config section '{section}'"
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(payload) - set(types)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    for key, value in payload.items():
        # an int fits a float; only a bool field takes true or false
        if not any(isinstance(value, JSON_TYPES[t]) and (t == "bool") == isinstance(value, bool)
                   for t in types[key].split(" | ")):
            raise ConfigError(f"{where}: key '{key}' must be {types[key]}, "
                              f"got {json.dumps(value)}")
    try:
        return cls(**payload)
    except ConfigError as err:
        raise ConfigError(f"{where}: {err}") from None


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid config JSON ({err})") from None
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: config is not UTF-8 text ({err.reason})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config root must be an object")
    sections = {"paths": PathsConfig, "model": VariantConfig,
                "training": TrainSection, "glove": glove.GloveConfig}
    unknown = set(payload) - set(sections)
    if unknown:
        raise ConfigError(f"{path}: unknown config section(s) {sorted(unknown)}")
    built = {}
    for name, cls in sections.items():
        section_payload = payload.get(name, {})
        if not isinstance(section_payload, dict):
            raise ConfigError(f"{path}: config section '{name}' must be an object")
        built[name] = _build_section(cls, section_payload, name, path)
    return RunConfig(**built)


def _config_for(args, *flagged: str) -> RunConfig:
    """The config file (or the defaults), with each field of the ``flagged``
    sections that a flag of the same ``dest`` gave set to the flag's value."""
    config = load_config(args.config) if args.config else RunConfig.defaults()
    for name in flagged:
        section = getattr(config, name)
        given = {f.name: getattr(args, f.name) for f in fields(section)
                 if getattr(args, f.name, None) is not None}
        setattr(config, name, replace(section, **given))
    return config


def _require(value, what: str):
    if value is None:
        raise ConfigError(f"missing {what}: pass the flag or set it in the config file")
    return value


def _same_file(a, b) -> bool:
    """Whether paths ``a`` and ``b`` name one file: by ``os.path.samefile``
    when both exist, so another spelling or a link counts too, else by their
    resolved spellings."""
    try:
        return os.path.samefile(a, b)
    except OSError:
        return Path(a).resolve() == Path(b).resolve()


def _output(flag: str, path, *inputs: tuple[str, str | None]):
    """``path``, given by ``flag``, once its parent directory exists, made
    before a stage does any work. A path that is a directory, or that names
    the same file as one of the ``(flag, path)`` pairs ``inputs``, is a
    ConfigError naming it."""
    if path is not None:
        if Path(path).is_dir():
            raise ConfigError(f"output path {str(path)!r} is a directory")
        for other_flag, other in inputs:
            if other is not None and _same_file(path, other):
                raise ConfigError(f"{flag} {str(path)!r} names the same file as "
                                  f"{other_flag} {str(other)!r}")
        Path(path).parent.mkdir(parents=True, exist_ok=True)
    return path


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cmd_gen_data(args) -> int:
    if args.sessions < 1:
        raise ConfigError(f"--sessions must be >= 1, got {args.sessions}")
    if args.holdout < 0:
        raise ConfigError(f"--holdout must be >= 0, got {args.holdout}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    total = args.sessions + args.holdout
    tracks, sessions = data.gen_synthetic(
        n_sessions=total,
        n_tracks=args.tracks,
        acoustic_dim=args.acoustic_dim,
        seed=args.seed,
        label_noise=args.noise,
    )
    data.write_tracks(out_dir / "tracks.csv", tracks)
    data.write_sessions(out_dir / "sessions.csv", sessions[: args.sessions], mode="train")
    print(f"tracks={len(tracks)}")
    print(f"sessions={args.sessions}")
    if args.holdout:
        data.write_sessions(out_dir / "sessions_holdout.csv",
                            sessions[args.sessions:], mode="train")
        print(f"holdout_sessions={args.holdout}")
    print(f"events={int(sessions.lengths[: args.sessions].sum())}")
    return EXIT_OK


def cmd_embed(args) -> int:
    config = _config_for(args, "paths", "glove")
    sessions_path = _require(config.paths.sessions, "sessions path")
    out_path = _output("--out", _require(config.paths.embeddings, "embedding output path"),
                       ("--sessions", sessions_path), ("--config", args.config))
    g = config.glove
    sessions = data.load_sessions(sessions_path, None, mode="train")
    table = glove.build_cooccurrence(sessions, window=g.window)
    if not len(table.pairs):
        raise DataError(f"{sessions_path}: cannot train embeddings on an empty co-occurrence "
                        f"table (no session plays two distinct tracks)")
    glove.check_track_ids(table.track_ids)
    emb = glove.train_glove(table, dims=g.dims, epochs=g.epochs, lr=g.lr, seed=g.seed,
                            x_max=g.x_max, alpha=g.alpha)
    glove.export_embeddings(emb, out_path)
    for k, epoch_loss in enumerate(emb.epoch_losses, start=1):
        print(f"epoch {k}: loss={epoch_loss:.6f}")
    decreased = emb.epoch_losses[-1] < emb.epoch_losses[0]
    print(f"loss_decreased={'true' if decreased else 'false'}")
    print(f"tracks={table.n_tracks}")
    print(f"pairs={len(table.pairs)}")
    print(f"embeddings={out_path}")
    return EXIT_OK


def _split_validation(sessions, config: TrainSection):
    n_valid = max(1, int(round(len(sessions) * config.val_fraction)))
    if n_valid >= len(sessions):
        raise ConfigError("validation split leaves no training sessions")
    order = np.random.default_rng([config.seed, 2]).permutation(len(sessions))
    valid = np.zeros(len(sessions), dtype=bool)
    valid[order[:n_valid]] = True
    return sessions.take(np.flatnonzero(~valid)), sessions.take(np.flatnonzero(valid))


def cmd_train(args) -> int:
    config = _config_for(args, "paths", "model", "training")
    sessions_path = _require(config.paths.sessions, "sessions path")
    tracks_path = _require(config.paths.tracks, "tracks path")
    embeddings_path = _require(config.paths.embeddings, "embeddings path")
    out = args.out
    if out is None and config.paths.checkpoint_dir is not None:
        out = str(Path(config.paths.checkpoint_dir) / "model.ckpt")
    out = _output("--out", _require(out, "checkpoint output path"),
                  ("--sessions", sessions_path), ("--tracks", tracks_path),
                  ("--embeddings", embeddings_path), ("--config", args.config))

    tracks = data.load_tracks(tracks_path)
    sessions = data.load_sessions(sessions_path, tracks, mode="train")
    embeddings = glove.load_embeddings(embeddings_path)
    train_split, valid_split = _split_validation(sessions, config.training)
    pipeline = FeaturePipeline(embeddings).fit(train_split, tracks)
    embedding_ref = {"sha256": _file_sha256(embeddings_path)}
    checkpoint = training.train(
        train_split, valid_split, tracks, pipeline, config.model, config.training,
        embedding_ref=embedding_ref, log=print,
    )
    training.save_checkpoint(checkpoint, out)
    print(f"checkpoint={out}")
    print(f"train_sessions={len(train_split)}")
    print(f"valid_sessions={len(valid_split)}")
    if checkpoint.metadata["best_val_aa"] is not None:
        print(f"best_val_aa={checkpoint.metadata['best_val_aa']:.6f}")
    return EXIT_OK


def cmd_predict(args) -> int:
    config = _config_for(args, "paths")
    sessions_path = _require(config.paths.sessions, "sessions path")
    tracks_path = _require(config.paths.tracks, "tracks path")
    _output("--out", args.out, *(("--model", path) for path in args.model),
            ("--sessions", sessions_path), ("--tracks", tracks_path), ("--config", args.config))
    members = []
    for path in args.model:
        checkpoint = training.load_checkpoint(path)
        members.append(checkpoint.build())
    tracks = data.load_tracks(tracks_path)
    sessions = data.load_sessions(sessions_path, tracks, mode="infer")
    predictions = metrics.ensemble_predict(members, sessions, tracks,
                                           threshold=args.threshold)
    metrics.write_submission(args.out, predictions)
    print(f"models={len(members)}")
    print(f"sessions={len(sessions)}")
    print(f"submission={args.out}")
    return EXIT_OK


def _load_truth(path) -> tuple[list[str], list[str]]:
    """The truth rows of ``path`` and the name ``--per-session`` gives each."""
    with data.open_text(path) as fh:
        head = fh.readline(64)
    # a quoted header is a sessions file too; its first field fits in 64 characters
    if next(csv.reader([head]), [])[:1] == ["session_id"]:
        sessions = data.load_sessions(path, None, mode="train")
        return sessions.session_ids, metrics.second_half_truth(sessions)
    # a row is named by its file line, as read_submission's errors name it
    lines = metrics.submission_lines(path)
    numbers = [k for k, line in enumerate(lines, start=1) if line]
    # one width for every name, so they sort in line order: the last row's, >= 6
    width = max(6, len(str(max(numbers, default=0))))
    return [f"line{k:0{width}d}" for k in numbers], [lines[k - 1] for k in numbers]


def cmd_evaluate(args) -> int:
    inputs = (("--truth", args.truth), ("--submission", args.submission))
    _output("--per-session", args.per_session, *inputs)
    _output("--breakdown", args.breakdown, *inputs, ("--per-session", args.per_session))
    names, truth = _load_truth(args.truth)
    submission = metrics.read_submission(args.submission)
    mean, report = metrics.score_submission(truth, submission)
    print(f"sessions={report['sessions']}")
    print(f"mean_aa={mean:.6f}")
    print(f"first_position_accuracy={report['first_position_accuracy']:.6f}")
    if args.per_session:
        with data.atomic_write(args.per_session) as fh:
            fh.write("session_id,aa\n")
            fh.write("".join(f"{name},{aa!r}\n"
                             for name, aa in zip(names, report["per_session"].tolist())))
        print(f"per_session={args.per_session}")
    if args.breakdown:
        with data.atomic_write(args.breakdown) as fh:
            fh.write("position,accuracy,count\n")
            fh.write("".join(f"{pos},{acc!r},{count}\n"
                             for pos, acc, count in report["per_position"]))
        print(f"breakdown={args.breakdown}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skipgru",
        description="Session skip prediction: data, embeddings, training, "
                    "prediction and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic sessions/tracks corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--sessions", type=int, default=2000)
    p.add_argument("--tracks", type=int, default=500)
    p.add_argument("--acoustic-dim", type=int, default=data.ACOUSTIC_DIM)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--holdout", type=int, default=0,
                   help="also write sessions_holdout.csv with this many sessions")
    p.add_argument("--noise", type=float, default=data.LABEL_NOISE)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("embed", help="train track embeddings from sessions")
    p.add_argument("--config")
    p.add_argument("--sessions")
    p.add_argument("--out", dest="embeddings", metavar="OUT")
    p.add_argument("--dims", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--x-max", dest="x_max", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("train", help="train a skip-prediction model")
    p.add_argument("--config")
    p.add_argument("--sessions")
    p.add_argument("--tracks")
    p.add_argument("--embeddings")
    p.add_argument("--out")
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--clip-norm", dest="clip_norm", type=float)
    p.add_argument("--activation", choices=["relu", "elu"])
    p.add_argument("--hidden-size", dest="hidden_size", type=int)
    p.add_argument("--batchnorm", dest="use_batchnorm",
                   action=argparse.BooleanOptionalAction, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="write a submission from checkpoint(s)")
    p.add_argument("--model", action="append", required=True,
                   help="checkpoint path; repeat for an ensemble")
    p.add_argument("--config")
    p.add_argument("--sessions")
    p.add_argument("--tracks")
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=metrics.THRESHOLD)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="score a submission against the truth")
    p.add_argument("--truth", required=True,
                   help="sessions.csv with second-half interactions, or a "
                        "submission-format file")
    p.add_argument("--submission", required=True)
    p.add_argument("--per-session", dest="per_session")
    p.add_argument("--breakdown")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (NumericError, TrainingError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SkipGruError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as err:
        print(f"error: out of memory: {err}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
