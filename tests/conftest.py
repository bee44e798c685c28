"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run (derandomize), and no example database is
read or written, so no earlier run can replay a failure into this one.
Each test's own max_examples and deadline still apply.  hypothesis would
still write the constants it collects from the sources, and a failing
example's patch, under .hypothesis/ in the working directory; its home is
a temporary directory instead, removed at exit.

hypothesis reports a failing property through hypothesis.extra._patching,
which it imports only then.  That import reaches mypy_extensions.TypedDict,
which warns DeprecationWarning, and under filterwarnings = ["error"] the
warning would end the run with INTERNALERROR and lose the falsifying
example.  So the module is imported once here, that warning ignored.

The no_child_left fixture checks that a test leaves no child process."""

import atexit
import os
import shutil
import tempfile
import warnings

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)
atexit.register(shutil.rmtree, _HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture
def no_child_left():
    """Fails the test if it leaves a child process of this one behind,
    running or unreaped (read from /proc/self/task/*/children)."""

    def children():
        pids = set()
        for tid in os.listdir("/proc/self/task"):
            with open(f"/proc/self/task/{tid}/children") as f:
                pids.update(f.read().split())
        return pids

    if not os.path.exists(f"/proc/self/task/{os.getpid()}/children"):
        pytest.skip("needs /proc/self/task/*/children")
    before = children()
    yield
    assert children() <= before
