"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run (derandomize), and no example database is
read or written, so no earlier run can replay a failure into this one.
Each test's own max_examples and deadline still apply.

hypothesis reports a failing property through hypothesis.extra._patching,
which it imports only then.  That import reaches mypy_extensions.TypedDict,
which warns DeprecationWarning, and under filterwarnings = ["error"] the
warning would end the run with INTERNALERROR and lose the falsifying
example.  So the module is imported once here, that warning ignored."""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
