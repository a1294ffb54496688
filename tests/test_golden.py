"""Golden report digests: every report of the benchmark workloads at one seed.

``golden_reports.json`` holds the sha256 of the stdout of each item of
``perfbench/items.build`` at seed 1001, keyed by workload and item id, and the
numpy, OpenBLAS and Python versions that wrote it.  The test runs every item
through ``cli.main`` in this process and lists each id whose report changed.
A change that alters reports on purpose rewrites the file with

    PYTHONPATH=src python tests/test_golden.py

which first prints each id whose digest changed, appeared or vanished, one a
line, and any change of versions, and names those ids, with their reason, in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
from pathlib import Path

# as the package and conftest.py do, before numpy loads: the file is also run
# as a script, and the reports of two OpenBLAS threads differ
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from semirigid import cli  # noqa: E402
from util import perfbench_items  # noqa: E402

GOLDEN = Path(__file__).with_name("golden_reports.json")
SEED = 1001


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "openblas": blas["version"],
            "python": platform.python_version()}


def report_digests(workdir) -> dict:
    """sha256 of the stdout of each item of both workloads at ``SEED``."""
    items = perfbench_items()
    out = {}
    for workload in items.WORKLOADS:
        for item in items.build(workload, SEED, str(workdir)):
            text = io.StringIO()
            with contextlib.redirect_stdout(text), contextlib.redirect_stderr(io.StringIO()):
                cli.main(item.argv)
            out[f"{workload}/{item.id}"] = hashlib.sha256(text.getvalue().encode()).hexdigest()
    return out


def differing(old: dict, new: dict) -> list:
    """The ids whose digest differs between two maps of id to digest."""
    return sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))


def test_reports_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert golden["versions"] == versions(), (
        f"digests written with {golden['versions']}, running {versions()}")
    got = report_digests(tmp_path)
    assert len(got) == 164
    changed = differing(golden["reports"], got)
    assert not changed, f"reports differ from the golden digests: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        reports = report_digests(workdir)
    golden = json.loads(GOLDEN.read_text())
    for k in differing(golden["reports"], reports):
        print("changed" if k in golden["reports"] and k in reports
              else "appeared" if k in reports else "vanished", k)
    if golden["versions"] != versions():
        print(f"versions {golden['versions']} -> {versions()}")
    GOLDEN.write_text(json.dumps({"seed": SEED, "versions": versions(), "reports": reports},
                                 indent=1, sort_keys=True) + "\n")
