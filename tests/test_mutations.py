"""Mutated inputs through ``cli.main``, in process: whatever a file holds, a
run exits 0, or 3 for bad data (4 only for a non-finite value), prints at
most one ``error:`` line and no traceback, and leaves no temporary or
half-written output behind.

A small corpus is built once: gen-data, embed, one epoch of train and a
prediction. Each example then edits one input (a field replaced, inserted
or deleted, a line duplicated or deleted, the file cut short, or one bit of
the checkpoint flipped) and runs the command that reads it into a fresh
directory."""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skipgru import cli, training

VALUES = ["", "nan", "1e309", "-1", "0", "1_0", "\u0661", "\x00", '"', "\r",
          "99999999999999999999", "x", " ", "1.5"]
OPS = ["replace", "insert", "delete", "duplicate-line", "delete-line", "truncate"]
# the file each target edits, how its lines split into fields, and what reads it
TARGETS = {
    "sessions": ("sessions_holdout.csv", ","),
    "tracks": ("tracks.csv", ","),
    "truth": ("sessions_holdout.csv", ","),
    "submission": ("sub.txt", ""),
    "embeddings": ("emb.txt", " "),
    "checkpoint": ("model.ckpt", None),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("mutations")
    sessions, tracks = str(root / "sessions.csv"), str(root / "tracks.csv")
    for argv in (
        ["gen-data", "--out-dir", str(root), "--sessions", "60", "--tracks", "50",
         "--acoustic-dim", "3", "--seed", "3", "--holdout", "12"],
        ["embed", "--sessions", sessions, "--out", str(root / "emb.txt"), "--dims", "6",
         "--epochs", "2"],
        ["train", "--sessions", sessions, "--tracks", tracks, "--embeddings",
         str(root / "emb.txt"), "--out", str(root / "model.ckpt"), "--epochs", "1",
         "--batch-size", "16", "--hidden-size", "4"],
        ["predict", "--model", str(root / "model.ckpt"), "--sessions",
         str(root / "sessions_holdout.csv"), "--tracks", tracks, "--out", str(root / "sub.txt")],
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    return root


def mutate(text: str, sep: str, op: str, where: int, field: int, value: str) -> str:
    """``text`` with one edit: a field of line ``where`` (fields split at
    ``sep``, or characters when ``sep`` is empty) replaced by, or preceded by,
    ``value``, or deleted; that line duplicated or deleted; or the text cut
    after ``where`` characters. Indexes wrap around."""
    if op == "truncate":
        return text[:where % (len(text) + 1)]
    lines = text.split("\n")
    k = where % len(lines)
    if op == "delete-line":
        del lines[k]
    elif op == "duplicate-line":
        lines.insert(k, lines[k])
    else:
        parts = lines[k].split(sep) if sep else list(lines[k])
        j = field % (len(parts) + 1)
        if op == "insert":
            parts.insert(j, value)
        elif j < len(parts) and op == "replace":
            parts[j] = value
        elif j < len(parts):
            del parts[j]
        lines[k] = sep.join(parts)
    return "\n".join(lines)


def command(target: str, root: Path, edited: Path, out: Path) -> tuple[list[str], list[Path]]:
    """The argv that reads ``edited`` in place of the corpus file of ``target``,
    and the files it writes."""
    inputs = {name: str(root / name) for name in
              ("sessions.csv", "sessions_holdout.csv", "tracks.csv", "emb.txt", "model.ckpt",
               "sub.txt")}
    inputs[TARGETS[target][0]] = str(edited)
    if target == "embeddings":
        return (["train", "--sessions", inputs["sessions.csv"], "--tracks", inputs["tracks.csv"],
                 "--embeddings", inputs["emb.txt"], "--out", str(out / "m.ckpt"),
                 "--epochs", "0", "--hidden-size", "4"], [out / "m.ckpt"])
    if target in ("truth", "submission"):
        written = [out / "per_session.csv", out / "positions.csv"]
        return (["evaluate", "--truth", inputs["sessions_holdout.csv"],
                 "--submission", inputs["sub.txt"], "--per-session", str(written[0]),
                 "--breakdown", str(written[1])], written)
    return (["predict", "--model", inputs["model.ckpt"], "--sessions",
             inputs["sessions_holdout.csv"], "--tracks", inputs["tracks.csv"],
             "--out", str(out / "s.txt")], [out / "s.txt"])


@pytest.mark.parametrize("target", TARGETS)
@settings(max_examples=50)
@given(op=st.sampled_from(OPS), where=st.integers(0, 2 ** 31), field=st.integers(0, 2 ** 31),
       value=st.sampled_from(VALUES))
def test_a_mutated_input_exits_cleanly(corpus, target, op, where, field, value):
    name, sep = TARGETS[target]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        edited, out = tmp / "in" / name, tmp / "out"
        edited.parent.mkdir()
        out.mkdir()
        if sep is None:
            raw = bytearray((corpus / name).read_bytes())
            bit = where % (8 * len(raw))
            raw[bit // 8] ^= 1 << (bit % 8)
            edited.write_bytes(raw)
        else:
            text = (corpus / name).read_text(encoding="utf-8")
            edited.write_text(mutate(text, sep, op, where, field, value), encoding="utf-8",
                              newline="")
        argv, written = command(target, corpus, edited, out)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        assert code in (0, 3) or (code == 4 and "non-finite" in err), (code, err)
        assert "Traceback" not in err
        assert [line.startswith("error: ") for line in err.splitlines()] == [True] * (code != 0)
        assert sorted(os.listdir(out)) == sorted(p.name for p in written if code == 0)
        if code == 0 and target == "embeddings":
            training.load_checkpoint(written[0])
