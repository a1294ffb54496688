"""Test-suite configuration: one BLAS thread and one fixed-seed Hypothesis profile.

OpenBLAS reads ``OPENBLAS_NUM_THREADS`` when numpy is first imported, so it is
set here, before any test module imports numpy; with threading, the first
float LAPACK call of a process can stall for tenths of a second and
lands on whichever timing test comes first.  Property-based tests draw the
same examples on every run (``derandomize``), keep no example database and
have no per-example deadline, so the suite stays deterministic and its run
time does not depend on the machine's load.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from hypothesis import settings  # noqa: E402

settings.register_profile("fixed-seed", derandomize=True, database=None, deadline=None,
                          max_examples=20)
settings.load_profile("fixed-seed")
