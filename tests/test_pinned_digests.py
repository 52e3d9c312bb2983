"""The benchmark's pinned output bytes, checked inside the test suite.

For each workload of ``perfbench/run.py``, generate the seed-0 corpus's
history with the workload's config through the command line, and require
the history to hash to the workload's pinned digest and to validate.  Only
reads ``perfbench/``: the corpus writer, the workloads and the digest.
"""

import sys
from pathlib import Path

import pytest

from evogen.history import validate_history
from evogen.minilang import MinilangAdapter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run as perfbench  # noqa: E402
from corpus import write_corpus  # noqa: E402

from conftest import invoke  # noqa: E402


@pytest.mark.parametrize("name", sorted(perfbench.WORKLOADS))
def test_history_hashes_to_the_pinned_digest(name, tmp_path):
    workload = perfbench.WORKLOADS[name]
    system, donors = write_corpus(tmp_path / "corpus", 0)
    bench = perfbench.Bench(workload, seed=0, work=tmp_path)
    config = tmp_path / "config.yaml"
    config.write_text(bench.config_yaml(), encoding="utf-8")
    bench.system, bench.donors, bench.config = system, donors, config
    out = tmp_path / "out"
    result = invoke(bench.generate_args(out))
    assert result.exit_code == 0, result.output
    assert perfbench.history_digest(out) == workload.digest
    report = validate_history(out, MinilangAdapter())
    assert report.ok, report.violations
