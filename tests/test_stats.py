import pytest

from evogen.errors import EvogenError
from evogen.minilang import MinilangAdapter
from evogen.model import AssetTree, Feature
from evogen.operations import apply_clone_variant
from evogen.refs import make_asset_ref
from evogen.stats import (compute_metrics, distinct_feature_count,
                          loc_per_variant, metric_row, rows_to_csv,
                          rows_to_long, total_feature_count, total_loc,
                          tree_metric)

from conftest import build_repo

ADAPTER = MinilangAdapter()


def two_variant_tree():
    tree = AssetTree()
    repo = build_repo(tree, "r", {"a.mini": ["1", "2", "3"], "b.mini": ["4"]})
    repo.feature_model.root.children = [Feature("F", "opF"), Feature("G", "opG")]
    apply_clone_variant(tree, {"source": make_asset_ref(tree, repo).to_text(),
                               "new_name": "r_v1"}, "op1", ADAPTER)
    tree.revision += 1
    return tree


class TestCounts:
    def test_shared_lineage_counts_once(self):
        tree = two_variant_tree()
        assert total_feature_count(tree) == 4
        assert distinct_feature_count(tree) == 2

    def test_new_feature_in_clone_is_distinct(self):
        tree = two_variant_tree()
        v1 = tree.find_repository("r_v1")
        v1.feature_model.root.children.append(Feature("H", "opH"))
        assert distinct_feature_count(tree) == 3

    def test_loc_metrics(self):
        tree = two_variant_tree()
        assert loc_per_variant(tree) == {"r": 4, "r_v1": 4}
        assert total_loc(tree) == 8

    def test_tree_metric_dispatch(self):
        tree = two_variant_tree()
        assert tree_metric(tree, "distinctFeatureCount") == 2
        assert tree_metric(tree, "totalFeatureCount") == 4
        assert tree_metric(tree, "totalLoc") == 8
        assert tree_metric(tree, "repositoryCount") == 2
        with pytest.raises(EvogenError):
            tree_metric(tree, "bogus")


class TestTables:
    def test_csv_shape(self):
        row = metric_row(two_variant_tree())
        csv = rows_to_csv([row])
        header, line = csv.strip().splitlines()
        assert header.startswith("revision,distinct_features")
        assert line == "1,2,4,2,8,r:4|r_v1:4"

    def test_long_shape(self):
        row = metric_row(two_variant_tree())
        long = rows_to_long([row]).strip().splitlines()
        assert long[0] == "revision,metric,key,value"
        assert "1,loc,r,4" in long
        assert "1,distinct_features,,2" in long


class TestComputeMetrics:
    def test_rows_follow_ledger(self, tmp_path, adapter):
        from evogen.runner import RunConfig, run
        from conftest import write_donor, write_initial_system
        system = write_initial_system(tmp_path / "in")
        donor = write_donor(tmp_path / "donors", "widget")
        out = tmp_path / "out"
        summary = run(RunConfig(max_iterations=15, seed=5), system, [donor], out)
        rows = compute_metrics(out, adapter)
        assert [r.revision for r in rows] == \
            list(range(summary.final_revision + 1))
        assert rows[0].distinct_features == 0
