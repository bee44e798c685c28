"""The characterization corpus (see corpus.py) in tier-1: its rows are the
generator's, and every row not marked slow prints what it recorded."""

import corpus


def test_corpus_lists_the_generator_rows():
    assert [(entry["argv"], entry["slow"]) for entry in corpus.load()] == corpus.rows()


def test_corpus_rows_hold(tmp_path, monkeypatch, no_child_left):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    corpus.write_files(tmp_path)
    assert corpus.mismatches([entry for entry in corpus.load() if not entry["slow"]]) == []
