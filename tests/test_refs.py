import random

import pytest

from evogen.errors import DanglingRef, NotInTree, StaleRef, UnknownFeature
from evogen.model import AssetTree, BLOCK, FILE, Feature, FeatureModel, LINE
from evogen.refs import (AssetRef, FeatureRef, lpq_to_full_path, make_asset_ref,
                         make_feature_lpq, resolve_asset_ref)

from conftest import build_repo, random_structured_tree


class TestAssetRefs:
    def test_file_ref_has_empty_index_path(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"src/a.mini": ["x"]})
        node = repo.child_named("src").child_named("a.mini")
        ref = make_asset_ref(tree, node)
        assert ref.fs_path == "/r/src/a.mini"
        assert ref.index_path == ()
        assert resolve_asset_ref(tree, ref) is node

    def test_nested_block_index_path(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"]})
        f = repo.child_named("a.mini")
        f.content = None
        outer = tree.new_node(BLOCK, "outer")
        inner1 = tree.new_node(BLOCK, "i1", children=[
            tree.new_node(LINE, "", content=["a"])])
        inner2 = tree.new_node(BLOCK, "i2", children=[
            tree.new_node(LINE, "", content=["b"])])
        outer.children = [inner1, inner2]
        f.children = [outer]
        ref = make_asset_ref(tree, inner2)
        assert ref.index_path == (0, 1)
        assert resolve_asset_ref(tree, ref) is inner2

    def test_folder_ref_resolves_to_folder(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"src/a.mini": ["x"]})
        folder = repo.child_named("src")
        ref = make_asset_ref(tree, folder)
        assert ref.index_path == ()
        assert resolve_asset_ref(tree, ref) is folder

    def test_detached_node_raises(self):
        tree = AssetTree()
        node = tree.new_node(FILE, "loose.mini", content=[])
        with pytest.raises(NotInTree):
            make_asset_ref(tree, node)

    def test_stale_revision_raises(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"]})
        ref = make_asset_ref(tree, repo.child_named("a.mini"))
        tree.revision += 1
        with pytest.raises(StaleRef):
            resolve_asset_ref(tree, ref)

    def test_out_of_range_index_raises(self):
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": ["x"]})
        with pytest.raises(DanglingRef):
            resolve_asset_ref(tree, AssetRef(0, "/r/a.mini", (4,)))

    def test_text_round_trip(self):
        for ref in (AssetRef(3, "/r/a.mini", (0, 2)), AssetRef(0, "/"),
                    AssetRef(7, "/r/sub")):
            assert AssetRef.from_text(ref.to_text()) == ref
        assert AssetRef(3, "/r/a.mini", (0, 2)).to_text() == "3:/r/a.mini#0.2"

    @pytest.mark.parametrize("seed", range(25))
    def test_round_trip_every_node_random_trees(self, seed):
        tree = random_structured_tree(random.Random(seed))
        for node in tree.root.iter_nodes():
            ref = make_asset_ref(tree, node)
            assert resolve_asset_ref(tree, ref) is node


def model_of(*paths):
    root = Feature("Root")
    for path in paths:
        node = root
        for name in path.split("/"):
            nxt = node.child(name)
            if nxt is None:
                nxt = Feature(name)
                node.children.append(nxt)
            node = nxt
    return FeatureModel(root)


class TestLpq:
    def test_unique_leaf_is_bare_name(self):
        m = model_of("A/X", "B/Y")
        x = m.find(("Root", "A", "X"))
        assert make_feature_lpq(m, x) == ("X",)

    def test_ambiguous_leaf_needs_parent(self):
        m = model_of("A/X", "B/X")
        x = m.find(("Root", "A", "X"))
        assert make_feature_lpq(m, x) == ("A", "X")

    def test_root_is_own_name(self):
        m = model_of("A")
        assert make_feature_lpq(m, m.root) == ("Root",)

    def test_missing_feature_raises(self):
        m = model_of("A")
        with pytest.raises(UnknownFeature):
            make_feature_lpq(m, Feature("ghost"))

    @pytest.mark.parametrize("seed", range(30))
    def test_lpq_minimal_and_resolvable(self, seed):
        rng = random.Random(seed)
        names = ["A", "B", "C", "X"]
        paths = set()
        for _ in range(rng.randint(1, 8)):
            depth = rng.randint(1, 3)
            paths.add("/".join(rng.choice(names) for _ in range(depth)))
        m = model_of(*sorted(paths))
        all_paths = m.paths()
        for path in all_paths:
            feature = m.find(path)
            lpq = make_feature_lpq(m, feature)
            assert m.find(lpq_to_full_path(m, lpq)) is feature
            # brute-force minimality: every strictly shorter suffix ambiguous
            for k in range(1, len(lpq)):
                shorter = lpq[k:]
                matches = [p for p in all_paths if p[-len(shorter):] == shorter]
                assert len(matches) != 1

    def test_feature_ref_text_round_trip(self):
        ref = FeatureRef("/calc", ("A", "X"))
        assert ref.to_text() == "/calc!A/X"
        assert FeatureRef.from_text("/calc!A/X") == ref
