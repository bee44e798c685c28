"""One hypothesis profile for the whole suite: every property test draws
the same examples on every run (derandomize), and no example database is
read or written, so no earlier run can replay a failure into this one.
Each test's own max_examples and deadline still apply."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
