"""Test-suite configuration: one fixed-seed Hypothesis profile.

Property-based tests draw the same examples on every run (``derandomize``),
keep no example database and have no per-example deadline, so the suite stays
deterministic and its run time does not depend on the machine's load.
"""

from hypothesis import settings

settings.register_profile("fixed-seed", derandomize=True, database=None, deadline=None,
                          max_examples=20)
settings.load_profile("fixed-seed")
