"""Replay the golden CLI corpus (see ``cli_corpus.py``) in one process."""

import hashlib
import json
import os

import pytest

from cli_corpus import ARGVS, run

with open(os.path.join(os.path.dirname(__file__), "cli_corpus.json")) as _f:
    CORPUS = json.load(_f)


def test_corpus_covers_every_argv():
    assert [entry["argv"] for entry in CORPUS] == ARGVS


@pytest.mark.parametrize("entry", CORPUS, ids=lambda entry: " ".join(entry["argv"])[:60])
def test_corpus_entry(entry):
    code, out, err = run(entry["argv"])
    assert (code, err) == (entry["exit"], entry["stderr"])
    if "stdout" in entry:
        assert out == entry["stdout"]
    elif "stdout_sha256" in entry:
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]
