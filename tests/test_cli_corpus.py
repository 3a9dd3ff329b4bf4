"""Replay the golden CLI corpus (see ``cli_corpus.py``) in one process."""

import hashlib
import json
import os
import sys

import pytest

from cli_corpus import ARGVS, first_line, run

with open(os.path.join(os.path.dirname(__file__), "cli_corpus.json")) as _f:
    CORPUS = json.load(_f)


def test_corpus_covers_every_argv():
    assert [entry["argv"] for entry in CORPUS] == ARGVS


def entry_id(entry) -> str:
    """The argv as one line; past 60 characters, its first 60 and a short
    sha256 of the whole line, so that each id is unique and follows its argv."""
    line = " ".join(entry["argv"])
    if len(line) <= 60:
        return line
    return f"{line[:60]}~{hashlib.sha256(line.encode()).hexdigest()[:8]}"


@pytest.mark.parametrize("entry", CORPUS, ids=entry_id)
def test_corpus_entry(entry):
    code, out, err = run(entry["argv"])
    assert (code, err) == (entry["exit"], entry["stderr"])
    if "stdout" in entry:
        assert out == entry["stdout"]
    elif "stdout_sha256" in entry:
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]
    elif "stdout_first_line" in entry:
        assert first_line(out) == entry["stdout_first_line"]


def test_exact_results_never_change_the_digit_limit(monkeypatch):
    # Every det and gen entry pinned by its sha256, among them the exact
    # results past the interpreter's int -> str digit limit, prints the same
    # while setting that limit is refused.
    def refuse(_):
        raise AssertionError("the CLI changed the interpreter's digit limit")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    entries = [entry for entry in CORPUS if entry["argv"][:1] in (["det"], ["gen"]) and entry["exit"] == 0
               and "stdout_sha256" in entry]
    assert len(entries) >= 3
    for entry in entries:
        code, out, err = run(entry["argv"])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]
