"""Self-check of the benchmark's tracer; runs in a few seconds.

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import pytest

import run
from run import CHECKOUT, Bench, Workload

sys.path.insert(0, str(CHECKOUT / "src"))

from tracer import TRACED, Tracer, installed_wrappers  # noqa: E402

TINY = Workload(iterations=12, distribution=run.WORKLOADS["variants"].distribution)


@pytest.fixture
def work():
    path = run.WORK_ROOT / f"selfcheck-{os.getpid()}"
    (path / "tmp").mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    if not any(run.WORK_ROOT.iterdir()):
        run.WORK_ROOT.rmdir()


def test_traced_run_reports_every_layer_and_matches_untraced_history(work):
    bench = Bench(TINY, seed=7, work=work)
    metrics = bench.trace()
    assert bench.failures == []
    assert metrics is not None
    names = [name for name, _ in run.per_layer_spec()]
    assert set(names) <= set(metrics)
    assert metrics["generate.operations.run_in_transaction.calls"] > 0
    assert metrics["validate.minilang.check_snapshot_dir.calls"] > 0
    assert metrics["stats.stats.metric_row.calls"] > 0
    assert metrics["runner.commits"] > 0


def test_wrappers_are_removed_and_originals_restored():
    from evogen import model, refs, runner

    originals = (refs.make_asset_ref, runner.check_snapshot_dir,
                 model.AssetTree.__dict__["path_to"])
    tracer = Tracer()
    tracer.install()
    try:
        assert len(installed_wrappers()) == sum(len(s) for s in TRACED.values())
        tree = model.AssetTree()
        assert refs.make_asset_ref(tree, tree.root).fs_path == "/"
        assert tracer.calls["refs.make_asset_ref"] == 1
        assert tracer.calls["model.AssetTree.path_to"] == 1
        assert tracer.self_s["refs.make_asset_ref"] <= tracer.total_s["refs.make_asset_ref"]
    finally:
        tracer.uninstall()
    assert installed_wrappers() == []
    assert (refs.make_asset_ref, runner.check_snapshot_dir,
            model.AssetTree.__dict__["path_to"]) == originals


def test_benchmark_json_lists_the_metrics_the_run_prints():
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in run.per_layer_spec()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
