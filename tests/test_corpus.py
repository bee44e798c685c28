"""The characterization corpus (see corpus.py) in tier-1: its rows are the
generator's, each command line once, every row not marked slow prints what
it recorded, and write reports what it changes."""

import corpus


def test_corpus_lists_the_generator_rows():
    assert [(entry["argv"], entry["slow"]) for entry in corpus.load()] == corpus.rows()
    # write matches old rows to new ones by command line.
    argvs = [tuple(argv) for argv, _ in corpus.rows()]
    assert len(set(argvs)) == len(argvs)


def test_corpus_rows_hold(tmp_path, monkeypatch, no_child_left):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    corpus.write_files(tmp_path)
    assert corpus.mismatches([entry for entry in corpus.load() if not entry["slow"]]) == []


def _entry(argv, stdout="a", stderr="b", code=0, slow=False):
    return {"argv": argv, "slow": slow, "stdout": stdout, "stderr": stderr, "code": code}


def test_write_reports_what_it_changed():
    old = [_entry(["gap", "--sphere"]), _entry(["ks"], code=2), _entry([]), _entry(["lens", "--lens", ""])]
    new = [
        _entry(["gap", "--sphere"], stdout="c", slow=True),
        _entry(["ks"], stderr="d", code=3),
        _entry([]),
        _entry(["roots", "--sphere"]),
    ]
    assert corpus.changes(old, new) == [
        "gap --sphere: stdout a -> c",
        "gap --sphere: slow False -> True",
        "ks: stderr b -> d",
        "ks: code 2 -> 3",
        "added: roots --sphere",
        "dropped: lens --lens ''",
    ]
    assert corpus.changes(old, old) == corpus.changes(new, new) == ["no row changed"]
