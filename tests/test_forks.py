import ast
import os
import pathlib

import pytest

from indicyl import forks


class Unpicklable(Exception):
    """An exception that pickles but cannot be rebuilt from its pickle."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def raising(error):
    def task():
        raise error

    return task


def pid():
    return os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
def test_results_come_back_in_task_order_from_process_i_mod_w(monkeypatch, no_child_left, workers):
    monkeypatch.setattr(forks, "_processes", lambda: workers)
    tasks = [lambda i=i: (i, os.getpid()) for i in range(6)]
    results = forks.run(tasks)
    assert [i for i, _ in results] == list(range(6))
    w = min(workers, 6)
    by_process = [{p for i, p in results if i % w == r} for r in range(w)]
    assert by_process[0] == {os.getpid()} and all(len(pids) == 1 for pids in by_process)
    assert len(set.union(*by_process)) == w


@pytest.mark.parametrize("workers", [1, 3])
def test_the_lowest_failing_task_is_raised(monkeypatch, no_child_left, workers):
    # On three processes task 1 fails in a worker and task 3 in this one;
    # task 1's exception is raised, with its type and message, as a loop
    # over the tasks would raise it.
    monkeypatch.setattr(forks, "_processes", lambda: workers)
    tasks = [lambda: 0, raising(KeyError("task 1")), lambda: 2, raising(ValueError("task 3"))]
    with pytest.raises(KeyError, match="task 1"):
        forks.run(tasks)


def test_an_exception_that_cannot_be_pickled_becomes_a_runtime_error(monkeypatch, no_child_left):
    monkeypatch.setattr(forks, "_processes", lambda: 2)
    with pytest.raises(RuntimeError, match="^Unpicklable: task 1 and more$"):
        forks.run([lambda: 0, raising(Unpicklable("task 1", "more"))])
    # In this process it is raised as it is.
    with pytest.raises(Unpicklable):
        forks.run([raising(Unpicklable("task 0", "more")), lambda: 1])


def test_no_tasks_give_no_results(no_child_left):
    assert forks.run([]) == []


def test_without_fork_every_task_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(forks, "_processes", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert forks.run([pid] * 5) == [os.getpid()] * 5


def _fork_calls(path: pathlib.Path) -> list[int]:
    """The lines of path that call os.fork, or import fork from os."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "fork":
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name == "fork" for alias in node.names):
                lines.append(node.lineno)
    return lines


def test_only_the_forks_module_forks():
    # Every process the package starts comes from forks.run, which owns the
    # orphan check, the warning filter and the reaping.
    src = pathlib.Path(forks.__file__).resolve().parent
    found = {path.name: _fork_calls(path) for path in sorted(src.glob("*.py"))}
    assert found.pop("forks.py")
    assert found and not any(found.values()), found
