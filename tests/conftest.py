"""Hypothesis draws the same examples on every run (no example database), so a
property test cannot pass or fail by luck between two runs of the suite."""

from hypothesis import settings

settings.register_profile("datafuse", derandomize=True, database=None)
settings.load_profile("datafuse")
