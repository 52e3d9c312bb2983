import random

import pytest

from evogen import model
from evogen.errors import EvogenError, SelfTrace, UnknownFeature
from evogen.generators import GENERATOR_IDS, GenContext, generate
from evogen.history import _tree_files, parse_initial_system
from evogen.minilang import MinilangAdapter
from evogen.model import AssetNode, AssetTree, CloneTrace, Feature, FILE, flatten_lines
from evogen.operations import apply_remove_feature, execute
from evogen.refs import AssetRef, FeatureRef, make_asset_ref
from evogen.transplant import load_donor

from conftest import (build_repo, random_fs_tree, reference_feature_state,
                      reference_reach, removal_matches_reference, removal_outcome,
                      structurally_equal, write_donor, write_initial_system)

ADAPTER = MinilangAdapter()


def mapped(repo, path, *features):
    node = repo
    for part in path.split("/"):
        node = node.child_named(part)
    node.mapped_features.update(features)
    return node


class TestEquality:
    """Refs and traces are values; tree nodes compare by identity, so no
    ``in`` or ``index`` over the tree compares whole subtrees."""

    @pytest.mark.parametrize("make", [
        lambda: AssetRef(3, "/r/a.mini", (0, 2)),
        lambda: FeatureRef("/r", ("A", "X")),
        lambda: CloneTrace("op1", "0:/a", "0:/b", 1, 2)])
    def test_equal_values_are_equal_and_hash_equal(self, make):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_values_of_other_fields_or_types_differ(self):
        assert AssetRef(3, "/r/a.mini") != AssetRef(4, "/r/a.mini")
        assert CloneTrace("op1", "0:/a", "0:/b", 1, 2) != CloneTrace("op1", "0:/a", "0:/b", 1, 3)
        assert FeatureRef("/r", ("A",)) != ("/r", ("A",))
        assert repr(AssetRef(3, "/r")) == "AssetRef(revision=3, fs_path='/r', index_path=())"

    def test_nodes_with_identical_fields_are_unequal_and_hashable(self):
        a, b = (AssetNode(FILE, "a.mini", 7, ["x"]) for _ in range(2))
        assert a != b and a == a
        assert len({a, b}) == 2


class TestFeatureExclusiveAssets:
    """RemoveFeature drops the assets exclusive to the removed feature and
    its descendants, and no other."""

    def test_shared_asset_excluded(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"], "b.mini": ["y"]})
        root = repo.feature_model.root
        root.children = [Feature("F", "f"), Feature("G", "g")]
        a = mapped(repo, "a.mini", ("r", "F"))
        b = mapped(repo, "b.mini", ("r", "F"), ("r", "G"))
        cited, survivors = removal_outcome(tree, repo, ("r", "F"), ADAPTER)
        assert cited == {a.node_id}
        assert survivors == {repo.node_id, b.node_id}

    def test_descendant_mapping_counts(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"]})
        repo.feature_model.root.children = [Feature("F", "f", [Feature("C", "c")])]
        a = mapped(repo, "a.mini", ("r", "F", "C"))
        assert removal_outcome(tree, repo, ("r", "F"), ADAPTER) == (
            {a.node_id}, {repo.node_id})

    def test_no_mapping_empty(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"]})
        repo.feature_model.root.children = [Feature("F", "f")]
        assert removal_outcome(tree, repo, ("r", "F"), ADAPTER) == (
            set(), {n.node_id for n in repo.iter_nodes()})

    def test_unknown_feature_raises(self):
        tree = AssetTree()
        build_repo(tree, "r", {})
        with pytest.raises(UnknownFeature):
            apply_remove_feature(tree, {"feature": "/r!missing"}, "op1", ADAPTER)

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
            assert removal_matches_reference(tree, repo, query, ADAPTER)


class TestTraces:
    def test_self_trace_rejected(self):
        tree = AssetTree()
        with pytest.raises(SelfTrace):
            tree.traces.add(CloneTrace("op", "0:/a", "0:/a", 5, 5))

    def test_queryable_by_source_target_op(self):
        tree = AssetTree()
        tree.traces.add(CloneTrace("op1", "0:/a", "0:/b", 1, 2))
        tree.traces.add(CloneTrace("op2", "0:/b", "0:/c", 2, 3))
        traces = tree.traces.traces
        assert [t.op_id for t in traces if t.op_id == "op1"] == ["op1"]
        assert [t.target_node for t in traces if t.source_node == 2] == [3]
        assert [t.source_node for t in traces if t.target_node == 2] == [1]

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
        # and the reference walk and the lineage of each node agree
        assert reachable <= reference_reach(tree, 1, directed=False)
        assert tree.traces.lineage(3) == [3, 2, 1]
        assert all(1 in tree.traces.lineage(n) for n in reachable)


class TestCorrespondingAsset:
    def _cloned_pair(self):
        from evogen.operations import apply_clone_variant
        tree = AssetTree()
        repo = build_repo(tree, "r1", {"a.mini": ["x"], "sub/b.mini": ["y"]})
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, repo).to_text(),
                   "new_name": "r2"}, "op1", ADAPTER)
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

    def test_unrelated_repositories_give_none(self):
        # CloneFeature refuses unrelated repositories before it asks
        tree = AssetTree()
        r1 = build_repo(tree, "r1", {"a.mini": ["x"]})
        r2 = build_repo(tree, "r2", {"a.mini": ["x"]})
        assert tree.corresponding_asset(r1.child_named("a.mini"), r2) is None

    def test_node_of_target_repository_answers_for_itself(self):
        tree, r1, _ = self._cloned_pair()
        a = r1.child_named("a.mini")
        assert tree.corresponding_asset(a, r1) is a

    def test_two_hop_chain(self):
        from evogen.operations import apply_clone_variant
        tree, r1, r2 = self._cloned_pair()
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, r2).to_text(),
                   "new_name": "r3"}, "op2", ADAPTER)
        r3 = tree.find_repository("r3")
        a = r1.child_named("sub").child_named("b.mini")
        twin = tree.corresponding_asset(a, r3)
        assert twin is r3.child_named("sub").child_named("b.mini")
        # brute-force reachability oracle over the trace list
        assert twin.node_id in reference_reach(tree, a.node_id, directed=True)
        assert tree.traces.lineage(twin.node_id)[-1] == a.node_id
        assert len(tree.traces.lineage(twin.node_id)) == 3


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


class TestCopyOnWrite:
    def test_execute_on_either_copy_leaves_the_other_unchanged(self, tmp_path):
        """Random histories where every step executes one drawn operation on
        the original or on a fresh clone: the side that did not execute keeps
        its render and feature state, failed operations included."""
        adapter = MinilangAdapter()
        tree = parse_initial_system(write_initial_system(tmp_path / "in"))
        donor = load_donor(write_donor(tmp_path / "donors", "d", tests=12,
                                       modules=4), adapter)
        ctx = GenContext(adapter=adapter, sensibility_discard_prob=0.0,
                         donors={donor.id: donor})
        rng = random.Random(3)
        applied: set[tuple[str, str]] = set()
        for step in range(300):
            twin = tree.clone()
            assert twin.shared == tree.shared == {r.name for r in tree.repositories}
            side, other = (twin, tree) if step % 2 else (tree, twin)
            candidate = generate(rng.choice(GENERATOR_IDS), side, rng, ctx)
            if candidate is None:
                continue
            before = (_tree_files(other), reference_feature_state(other))
            try:
                execute(side, candidate.kind, candidate.params, f"op{step}",
                        adapter=adapter)
                ok = True
            except EvogenError:
                ok = False
            assert (_tree_files(other), reference_feature_state(other)) == before, \
                f"step {step}: {candidate.kind} on the {'clone' if side is twin else 'original'}"
            if ok:
                applied.add((candidate.kind, "clone" if side is twin else "original"))
                side.revision += 1
            # a failed operation may leave its side half changed
            tree = side if ok else other
        kinds = {"RemoveFeature", "MutateAsset", "CloneVariant", "CloneFeature",
                 "TransplantFeature"}
        assert applied == {(k, s) for k in kinds for s in ("clone", "original")}

    def test_own_copies_one_repository_once_and_keeps_node_ids(self):
        tree = random_fs_tree(random.Random(4))
        while len(tree.repositories) < 2:
            build_repo(tree, f"extra{len(tree.repositories)}", {"x.mini": ["x"]})
        first, second = tree.repositories[:2]
        twin = tree.clone()
        twin.own(first.name)
        mine = twin.find_repository(first.name)
        assert mine is not first
        assert [n.node_id for n in mine.iter_nodes()] == \
            [n.node_id for n in first.iter_nodes()]
        assert twin.find_repository(second.name) is second
        assert first.name not in twin.shared and first.name in tree.shared
        twin.own(first.name)
        assert twin.find_repository(first.name) is mine
        for name in ("missing", None, ["a"], ""):
            twin.own(name)  # never raises

    def test_own_by_path_copies_the_path_and_keeps_node_ids(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"project.manifest": ["name: r"], "a.mini": ["x"],
                                      "d/e/b.mini": ["y", "z"], "d/c.mini": ["w"]})
        twin = tree.clone()
        twin.own("r", "d/e/b.mini")
        mine = twin.find_repository("r")
        assert [n.node_id for n in mine.iter_nodes()] == \
            [n.node_id for n in repo.iter_nodes()]
        on_path = {"r", "d", "e", "b.mini"}
        for old, new in zip(repo.iter_nodes(), mine.iter_nodes()):
            assert (old is not new) == (old.name in on_path), old.name
        assert mine.feature_model is repo.feature_model
        # the repository stays shared, so the next path is copied too
        assert "r" in twin.shared and "r" in tree.shared
        twin.own("r", "a.mini")
        again = twin.find_repository("r")
        assert again.child_named("a.mini") is not repo.child_named("a.mini")
        assert again.child_named("d") is mine.child_named("d")
        assert again.child_named("project.manifest") is repo.child_named("project.manifest")
        # a path that names no file other than a manifest owns the repository
        for path in ("project.manifest", "d", "d/missing.mini", "", "a.mini/x"):
            other = tree.clone()
            other.own("r", path)
            whole = other.find_repository("r")
            assert not {id(n) for n in whole.iter_nodes()} & {id(n) for n in repo.iter_nodes()}
            assert "r" not in other.shared

    def test_own_keeps_what_a_line_edit_leaves_valid(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"], "b.mini": ["y"]})
        repo.feature_model.root.children = [Feature("F", "f")]
        block = tree.new_node("block", "blk", children=[
            tree.new_node("line", "", content=["z"])])
        repo.child_named("b.mini").children = [block]
        repo.child_named("b.mini").content = None
        problems, fragment = ["p"], ["frag"]
        repo.derived.update({"files": {"r": None, "r/a.mini": b"x\n", "r/b.mini": b"z\n"},
                             "context": object(), "sources": {"a.mini": [], "b.mini": []},
                             "problems": problems, "fragment": fragment})
        twin = tree.clone()
        twin.own("r", "a.mini")
        kept = twin.find_repository("r").derived
        assert kept["files"] is repo.derived["files"]
        assert list(kept["edited"]) == ["a.mini"]
        assert kept["context"] is repo.derived["context"]
        assert kept["sources"] == {"b.mini": []}
        assert kept["fragment"] is fragment and "problems" not in kept
        # an edit of a file that holds a mapped block drops the fragment
        block.mapped_features = {("r", "F")}
        twin = tree.clone()
        twin.own("r", "b.mini")
        assert "fragment" not in twin.find_repository("r").derived
        # in place, the same rule applies to the node itself, and a
        # repository-wide own keeps nothing
        tree.shared = set()
        tree.own("r", "a.mini")
        assert set(repo.derived) == {"files", "edited", "context", "sources", "fragment"}
        tree.own("r")
        assert repo.derived == {}

    def test_clone_shares_the_trace_list_until_either_side_adds(self):
        tree = AssetTree()
        tree.traces.add(CloneTrace("op0", "0:/a", "0:/b", 1, 2))
        twin = tree.clone()
        assert twin.traces.traces is tree.traces.traces
        assert twin.traces.source is tree.traces.source
        twin.traces.add(CloneTrace("op1", "0:/b", "0:/c", 2, 3))
        assert [t.op_id for t in tree.traces.traces] == ["op0"]
        assert [t.op_id for t in twin.traces.traces] == ["op0", "op1"]
        third = tree.clone()
        tree.traces.add(CloneTrace("op2", "0:/a", "0:/d", 1, 4))
        assert [t.op_id for t in third.traces.traces] == ["op0"]
        assert [t.op_id for t in tree.traces.traces] == ["op0", "op2"]
        # the target -> source map is shared and copied with the list
        assert third.traces.source == {2: 1}
        assert twin.traces.source == {2: 1, 3: 2}
        assert tree.traces.source == {2: 1, 4: 1}
        fourth = twin.clone()
        assert fourth.traces.source is twin.traces.source
        fourth.traces.add(CloneTrace("op3", "0:/c", "0:/e", 3, 5))
        assert twin.traces.source == {2: 1, 3: 2}
        assert fourth.traces.lineage(5) == [5, 3, 2, 1]
        assert twin.traces.lineage(5) == [5]
