import random

import pytest

from evogen import model
from evogen.errors import SelfTrace, UnknownFeature, UnrelatedRepositories
from evogen.model import (AssetTree, CloneTrace, Feature, FeatureModel, FILE,
                          feature_exclusive_assets, flatten_lines,
                          structurally_equal)
from evogen.refs import make_asset_ref

from conftest import build_repo, random_fs_tree


def mapped(repo, path, *features):
    node = repo
    for part in path.split("/"):
        node = node.child_named(part)
    node.mapped_features.update(features)
    return node


class TestFeatureExclusiveAssets:
    def test_shared_asset_excluded(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"], "b.mini": ["y"]})
        root = repo.feature_model.root
        root.children = [Feature("F", "f"), Feature("G", "g")]
        a = mapped(repo, "a.mini", ("r", "F"))
        mapped(repo, "b.mini", ("r", "F"), ("r", "G"))
        assert feature_exclusive_assets(repo, ("r", "F")) == [a]

    def test_descendant_mapping_counts(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"]})
        repo.feature_model.root.children = [Feature("F", "f", [Feature("C", "c")])]
        a = mapped(repo, "a.mini", ("r", "F", "C"))
        assert feature_exclusive_assets(repo, ("r", "F")) == [a]

    def test_no_mapping_empty(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"]})
        repo.feature_model.root.children = [Feature("F", "f")]
        assert feature_exclusive_assets(repo, ("r", "F")) == []

    def test_unknown_feature_raises(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {})
        with pytest.raises(UnknownFeature):
            feature_exclusive_assets(repo, ("r", "missing"))

    def test_matches_brute_force_on_random_mappings(self):
        rng = random.Random(7)
        for _ in range(100):
            tree = AssetTree()
            repo = build_repo(tree, "r", {f"f{i}.mini": ["x"] for i in range(5)})
            repo.feature_model.root.children = [
                Feature("A", "a", [Feature("A1", "a1")]), Feature("B", "b")]
            paths = [p for p in repo.feature_model.paths() if len(p) > 1]
            for node in repo.iter_nodes():
                if node.kind == FILE:
                    node.mapped_features = {
                        p for p in paths if rng.random() < 0.4}
            query = paths[rng.randrange(len(paths))]
            descendants = {p for p in repo.feature_model.paths()
                           if p[:len(query)] == query}
            expected = [n for n in repo.iter_nodes()
                        if n.mapped_features and n.mapped_features <= descendants]
            assert feature_exclusive_assets(repo, query) == expected


class TestTraces:
    def test_self_trace_rejected(self):
        tree = AssetTree()
        with pytest.raises(SelfTrace):
            tree.traces.add(CloneTrace("op", "0:/a", "0:/a", 5, 5))

    def test_queryable_by_source_target_op(self):
        tree = AssetTree()
        tree.traces.add(CloneTrace("op1", "0:/a", "0:/b", 1, 2))
        tree.traces.add(CloneTrace("op2", "0:/b", "0:/c", 2, 3))
        assert len(tree.traces.by_op("op1")) == 1
        assert tree.traces.by_source(2)[0].target_node == 3
        assert tree.traces.by_target(2)[0].source_node == 1

    def test_transitive_chain_reachability(self):
        # R1 -> R2 -> R3; brute-force reachability over the trace graph
        tree = AssetTree()
        for i, (s, t) in enumerate([(1, 2), (2, 3)]):
            tree.traces.add(CloneTrace(f"op{i}", f"0:/f{s}", f"0:/f{t}", s, t))
        reachable = {1}
        changed = True
        while changed:
            changed = False
            for t in tree.traces.traces:
                if t.source_node in reachable and t.target_node not in reachable:
                    reachable.add(t.target_node)
                    changed = True
        assert 3 in reachable
        # and the db agrees via neighbor expansion
        seen, frontier = {1}, [1]
        while frontier:
            for n in tree.traces.neighbors(frontier.pop()):
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        assert reachable <= seen


class TestCorrespondingAsset:
    def _cloned_pair(self):
        from evogen.operations import apply_clone_variant
        tree = AssetTree()
        repo = build_repo(tree, "r1", {"a.mini": ["x"], "sub/b.mini": ["y"]})
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, repo).to_text(),
                   "new_name": "r2"}, "op1")
        return tree, repo, tree.find_repository("r2")

    def test_single_hop(self):
        tree, r1, r2 = self._cloned_pair()
        a = r1.child_named("a.mini")
        twin = tree.corresponding_asset(a, r2)
        assert twin is r2.child_named("a.mini")

    def test_post_clone_asset_has_no_twin(self):
        tree, r1, r2 = self._cloned_pair()
        late = tree.new_node(FILE, "late.mini", content=["z"])
        r1.children.append(late)
        assert tree.corresponding_asset(late, r2) is None

    def test_unrelated_repositories_raise(self):
        tree = AssetTree()
        r1 = build_repo(tree, "r1", {"a.mini": ["x"]})
        r2 = build_repo(tree, "r2", {"a.mini": ["x"]})
        with pytest.raises(UnrelatedRepositories):
            tree.corresponding_asset(r1.child_named("a.mini"), r2)

    def test_two_hop_chain(self):
        from evogen.operations import apply_clone_variant
        tree, r1, r2 = self._cloned_pair()
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, r2).to_text(),
                   "new_name": "r3"}, "op2")
        r3 = tree.find_repository("r3")
        a = r1.child_named("sub").child_named("b.mini")
        twin = tree.corresponding_asset(a, r3)
        assert twin is r3.child_named("sub").child_named("b.mini")
        # brute-force reachability oracle over the trace db
        seen, frontier = {a.node_id}, [a.node_id]
        while frontier:
            for n in tree.traces.neighbors(frontier.pop()):
                if n not in seen:
                    seen.add(n)
                    frontier.append(n)
        assert twin.node_id in seen


class TestLineEdits:
    def test_flatten_and_edit_leaf_file(self):
        tree = AssetTree()
        f = tree.new_node(FILE, "f", content=["a", "b", "c"])
        model.delete_line(f, 1)
        assert flatten_lines(f) == ["a", "c"]
        model.insert_line(tree, f, 0, "z")
        assert flatten_lines(f) == ["z", "a", "c"]
        model.replace_line(f, 2, "C")
        assert flatten_lines(f) == ["z", "a", "C"]

    def test_edit_structured_file(self):
        tree = AssetTree()
        f = tree.new_node(FILE, "f", content=["a", "b", "c", "d"])
        model.explode_file(tree, f)
        block = tree.new_node("block", "g", children=[
            tree.new_node("line", "", content=["g1"]),
            tree.new_node("line", "", content=["g2"])])
        model.insert_nodes_at_flat_index(f, 2, [block])
        assert flatten_lines(f) == ["a", "b", "g1", "g2", "c", "d"]
        model.delete_line(f, 3)  # g2, inside the block
        assert flatten_lines(f) == ["a", "b", "g1", "c", "d"]
        model.replace_line(f, 2, "G1")
        assert flatten_lines(f) == ["a", "b", "G1", "c", "d"]
        model.insert_line(tree, f, 4, "x")
        assert flatten_lines(f) == ["a", "b", "G1", "c", "x", "d"]


class TestSerialization:
    @pytest.mark.parametrize("seed", range(10))
    def test_clone_preserves_ids_and_structure(self, seed):
        tree = random_fs_tree(random.Random(seed))
        twin = tree.clone()
        assert structurally_equal(tree.root, twin.root)
        ids_a = [n.node_id for n in tree.root.iter_nodes()]
        ids_b = [n.node_id for n in twin.root.iter_nodes()]
        assert ids_a == ids_b
        # mutating the copy leaves the original untouched
        twin.root.children.clear()
        assert tree.root.children
