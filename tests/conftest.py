"""Hypothesis draws the same examples on every run (no example database, and
no constants from the source of the modules a run happens to import), so a
property test cannot pass or fail by luck between two runs of the suite.

The constants pool is emptied through hypothesis's private
`providers._get_local_constants` (present in hypothesis 6.155.2); if a
release renames it, the assertion below fails instead of the patch doing
nothing."""

from hypothesis import settings
from hypothesis.internal.conjecture import providers

settings.register_profile("datafuse", derandomize=True, database=None)
settings.load_profile("datafuse")
assert hasattr(providers, "_get_local_constants"), "hypothesis no longer has _get_local_constants"
providers._get_local_constants = lambda: providers.Constants()
