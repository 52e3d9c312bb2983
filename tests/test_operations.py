import random

import pytest

from evogen import model as m
from evogen.errors import (AlreadyPresent, BadIndex, CannotRemoveRoot,
                           DuplicateRepository, EvogenError, NotMutable,
                           UnrelatedRepositories)
from evogen.history import materialize_tree
from evogen.minilang import MinilangAdapter, check_tree
from evogen.model import AssetTree, FILE, Feature
from evogen.operations import (Committed, RolledBack,
                               apply_clone_feature, apply_clone_variant,
                               apply_mutate_asset, apply_remove_feature,
                               execute, run_in_transaction)
from evogen.refs import FeatureRef, make_asset_ref, make_feature_ref

from conftest import build_repo, structurally_equal


def featured_repo(tree, name="r"):
    """Repo with two features, F exclusive to a.mini, G shared on b.mini."""
    repo = build_repo(tree, name, {"a.mini": ["fa"], "b.mini": ["fb"],
                                   "c.mini": ["fc"]})
    root = repo.feature_model.root
    root.children = [Feature("F", "op_f"), Feature("G", "op_g")]
    repo.child_named("a.mini").mapped_features = {(name, "F")}
    repo.child_named("b.mini").mapped_features = {(name, "F"), (name, "G")}
    return repo


class TestRemoveFeature:
    def test_removes_exclusive_assets_and_mappings(self):
        tree = AssetTree()
        repo = featured_repo(tree)
        ref = make_feature_ref(tree, repo, repo.feature_model.find(("r", "F")))
        record = apply_remove_feature(tree, {"feature": ref.to_text()}, "op1")
        assert repo.child_named("a.mini") is None
        assert repo.child_named("b.mini").mapped_features == {("r", "G")}
        assert repo.feature_model.find(("r", "F")) is None
        kinds = [s.kind for s in record.sub_ops]
        assert kinds.count("RemoveAsset") == 1
        assert kinds.count("RemoveMapping") == 1

    def test_remove_root_raises(self):
        tree = AssetTree()
        repo = featured_repo(tree)
        ref = make_feature_ref(tree, repo, repo.feature_model.root)
        with pytest.raises(CannotRemoveRoot):
            apply_remove_feature(tree, {"feature": ref.to_text()}, "op1")

    def test_subtree_removal(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"], "b.mini": ["y"]})
        repo.feature_model.root.children = [
            Feature("F", "f", [Feature("C", "c")])]
        repo.child_named("a.mini").mapped_features = {("r", "F", "C")}
        ref = make_feature_ref(tree, repo, repo.feature_model.find(("r", "F")))
        apply_remove_feature(tree, {"feature": ref.to_text()}, "op1")
        assert repo.child_named("a.mini") is None
        assert repo.feature_model.paths() == [("r",)]

    def test_exclusive_folder_and_its_file_are_removed_once(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"d/a.mini": ["x"], "b.mini": ["y"]})
        repo.feature_model.root.children = [Feature("F", "f")]
        folder = repo.child_named("d")
        folder.mapped_features = {("r", "F")}
        folder.child_named("a.mini").mapped_features = {("r", "F")}
        ref = make_feature_ref(tree, repo, repo.feature_model.find(("r", "F")))
        record = apply_remove_feature(tree, {"feature": ref.to_text()}, "op1")
        assert [(s.kind, s.params) for s in record.sub_ops] == [
            ("RemoveAsset", {"asset": "0:/r/d"})]
        assert [n.name for n in repo.children] == ["b.mini"]

    def test_sub_op_refs_cite_pre_state(self):
        # two exclusive siblings: the second ref must still resolve in the
        # pre-state even though removing the first shifts its index
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["x"], "b.mini": ["y"]})
        repo.feature_model.root.children = [Feature("F", "f")]
        repo.child_named("a.mini").mapped_features = {("r", "F")}
        repo.child_named("b.mini").mapped_features = {("r", "F")}
        pre = tree.clone()
        ref = make_feature_ref(tree, repo, repo.feature_model.find(("r", "F")))
        record = apply_remove_feature(tree, {"feature": ref.to_text()}, "op1")
        from evogen.refs import AssetRef, resolve_asset_ref
        removed = [s for s in record.sub_ops if s.kind == "RemoveAsset"]
        assert len(removed) == 2
        names = {resolve_asset_ref(pre, AssetRef.from_text(s.params["asset"])).name
                 for s in removed}
        assert names == {"a.mini", "b.mini"}


class TestMutateAsset:
    def _tree(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["l0", "l1", "l2"]})
        return tree, repo.child_named("a.mini")

    def test_add_replace_delete(self):
        tree, f = self._tree()
        ref = make_asset_ref(tree, f).to_text()
        apply_mutate_asset(tree, {"target": ref, "mutation": "addLine",
                                  "line": 1, "donor_line": "new"}, "op1")
        assert m.flatten_lines(f) == ["l0", "new", "l1", "l2"]
        apply_mutate_asset(tree, {"target": ref, "mutation": "replaceLine",
                                  "line": 0, "donor_line": "L0"}, "op2")
        apply_mutate_asset(tree, {"target": ref, "mutation": "deleteLine",
                                  "line": 3}, "op3")
        assert m.flatten_lines(f) == ["L0", "new", "l1"]

    def test_manifest_not_mutable(self):
        tree = AssetTree()
        repo = build_repo(tree, "r", {"project.manifest": ["name: r"]})
        ref = make_asset_ref(tree, repo.child_named("project.manifest"))
        with pytest.raises(NotMutable):
            apply_mutate_asset(tree, {"target": ref.to_text(),
                                      "mutation": "deleteLine", "line": 0}, "op")

    def test_bad_index(self):
        tree, f = self._tree()
        ref = make_asset_ref(tree, f).to_text()
        with pytest.raises(BadIndex):
            apply_mutate_asset(tree, {"target": ref, "mutation": "deleteLine",
                                      "line": 3}, "op")


class TestCloneVariant:
    def test_structural_copy_fresh_ids_and_traces(self):
        tree = AssetTree()
        repo = build_repo(tree, "r1", {"a.mini": ["x"], "sub/b.mini": ["y"]})
        node_count = sum(1 for _ in repo.iter_nodes())
        apply_clone_variant(tree, {"source": make_asset_ref(tree, repo).to_text(),
                                   "new_name": "r2"}, "op1")
        clone = tree.find_repository("r2")
        assert clone is not None
        ids_src = {n.node_id for n in repo.iter_nodes()}
        ids_cln = {n.node_id for n in clone.iter_nodes()}
        assert not ids_src & ids_cln
        # name apart, structure matches
        clone.name = "r1"
        assert structurally_equal(repo, clone)
        clone.name = "r2"
        assert sum(t.op_id == "op1" for t in tree.traces.traces) == node_count

    def test_duplicate_name_raises(self):
        tree = AssetTree()
        repo = build_repo(tree, "r1", {"a.mini": ["x"]})
        build_repo(tree, "r2", {})
        with pytest.raises(DuplicateRepository):
            apply_clone_variant(tree, {"source": make_asset_ref(tree, repo).to_text(),
                                       "new_name": "r2"}, "op1")


class TestCloneFeature:
    def _variant_pair(self):
        tree = AssetTree()
        repo = featured_repo(tree)
        apply_clone_variant(tree, {"source": make_asset_ref(tree, repo).to_text(),
                                   "new_name": "r2"}, "op1")
        return tree, repo, tree.find_repository("r2")

    def test_clone_into_pruned_variant(self):
        tree, r1, r2 = self._variant_pair()
        ref = make_feature_ref(tree, r2, r2.feature_model.find(("r", "F")))
        apply_remove_feature(tree, {"feature": ref.to_text()}, "op2")
        assert r2.child_named("a.mini") is None
        src = make_feature_ref(tree, r1, r1.feature_model.find(("r", "F")))
        tgt = make_feature_ref(tree, r2, r2.feature_model.root)
        record = apply_clone_feature(tree, {
            "source_repo": "r", "target_repo": "r2",
            "feature": src.to_text(), "target_parent": tgt.to_text()}, "op3")
        assert r2.feature_model.find(("r", "F")) is not None
        # a.mini cloned back, b.mini (shared, still present) only remapped
        assert m.flatten_lines(r2.child_named("a.mini")) == ["fa"]
        assert ("r", "F") in r2.child_named("b.mini").mapped_features
        kinds = [s.kind for s in record.sub_ops]
        assert "CloneAsset" in kinds and "AddMapping" in kinds
        # cloned feature keeps its origin lineage
        assert r2.feature_model.find(("r", "F")).origin == "op_f"

    def test_already_present_raises(self):
        tree, r1, r2 = self._variant_pair()
        src = make_feature_ref(tree, r1, r1.feature_model.find(("r", "F")))
        tgt = make_feature_ref(tree, r2, r2.feature_model.root)
        with pytest.raises(AlreadyPresent):
            apply_clone_feature(tree, {
                "source_repo": "r", "target_repo": "r2",
                "feature": src.to_text(), "target_parent": tgt.to_text()}, "op")

    def test_unrelated_repositories_raise(self):
        tree = AssetTree()
        r1 = featured_repo(tree, "r1")
        r2 = build_repo(tree, "r2", {})
        src = make_feature_ref(tree, r1, r1.feature_model.find(("r1", "F")))
        tgt = make_feature_ref(tree, r2, r2.feature_model.root)
        with pytest.raises(UnrelatedRepositories):
            apply_clone_feature(tree, {
                "source_repo": "r1", "target_repo": "r2",
                "feature": src.to_text(), "target_parent": tgt.to_text()}, "op")

    @pytest.mark.parametrize("key", ["feature", "target_parent"])
    def test_feature_ref_of_another_repository_raises(self, key):
        tree, r1, r2 = self._variant_pair()
        ref = make_feature_ref(tree, r2, r2.feature_model.find(("r", "F")))
        apply_remove_feature(tree, {"feature": ref.to_text()}, "op2")
        params = {"source_repo": "r", "target_repo": "r2",
                  "feature": make_feature_ref(tree, r1, r1.feature_model.find(
                      ("r", "F"))).to_text(),
                  "target_parent": make_feature_ref(
                      tree, r2, r2.feature_model.root).to_text()}
        # the same LPQ, in the other repository of the pair
        other = {"feature": r2, "target_parent": r1}[key]
        params[key] = FeatureRef(f"/{other.name}",
                                 FeatureRef.from_text(params[key]).lpq).to_text()
        with pytest.raises(EvogenError, match="is not a feature of"):
            apply_clone_feature(tree, params, "op3")

    def test_default_integration_index_after_traced_predecessor(self):
        tree, r1, r2 = self._variant_pair()
        ref = make_feature_ref(tree, r2, r2.feature_model.find(("r", "F")))
        apply_remove_feature(tree, {"feature": ref.to_text()}, "op2")
        src = make_feature_ref(tree, r1, r1.feature_model.find(("r", "F")))
        tgt = make_feature_ref(tree, r2, r2.feature_model.root)
        apply_clone_feature(tree, {
            "source_repo": "r", "target_repo": "r2",
            "feature": src.to_text(), "target_parent": tgt.to_text()}, "op3")
        # in r1, a.mini comes first; with no traced predecessor it lands at
        # the index right after the last twin preceding it (none -> append)
        names = [c.name for c in r2.children]
        assert "a.mini" in names


class TestRecordRoundTrip:
    @pytest.mark.parametrize("seed", range(15))
    def test_replay_oracle_random_mutations(self, seed):
        """Re-executing serialized records on a copy reproduces the state."""
        rng = random.Random(seed)
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": ["l0", "l1", "l2", "l3"],
                               "b.mini": ["m0", "m1"]})
        start = tree.clone()
        records = []
        for i in range(10):
            repo = tree.find_repository("r")
            files = [n for n in repo.iter_nodes()
                     if n.kind == FILE and m.file_line_count(n) > 0]
            if not files:
                break
            f = rng.choice(files)
            mutation = rng.choice(["addLine", "replaceLine", "deleteLine"])
            params = {"target": make_asset_ref(tree, f).to_text(),
                      "mutation": mutation,
                      "line": rng.randrange(m.file_line_count(f))}
            if mutation != "deleteLine":
                params["donor_line"] = f"donor {i}"
            records.append(execute(tree, "MutateAsset", params, f"op{i}"))
            tree.revision += 1
        replayed = start
        for rec in records:
            data = rec.to_dict()
            execute(replayed, data["kind"], data["params"], data["op_id"])
            replayed.revision += 1
        assert structurally_equal(tree.root, replayed.root)
        assert replayed.revision == tree.revision


class TestTransactions:
    def _dump(self, tree, tmp_path, name):
        out = tmp_path / name
        materialize_tree(tree, out)
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    def test_commit_bumps_revision_and_keeps_input(self, tmp_path):
        adapter = MinilangAdapter()
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["def f {", "}"]})
        ref = make_asset_ref(tree, repo.child_named("a.mini")).to_text()
        before = self._dump(tree, tmp_path, "before")
        result = run_in_transaction(
            tree, "MutateAsset",
            {"target": ref, "mutation": "addLine", "line": 1, "donor_line": "x"},
            "op1", lambda t: check_tree(t, adapter), adapter=adapter)
        assert isinstance(result, Committed)
        assert result.tree.revision == tree.revision + 1
        assert self._dump(tree, tmp_path, "after") == before

    def test_checker_failure_rolls_back(self, tmp_path):
        adapter = MinilangAdapter()
        tree = AssetTree()
        repo = build_repo(tree, "r", {"a.mini": ["def f {", "}"]})
        ref = make_asset_ref(tree, repo.child_named("a.mini")).to_text()
        before = self._dump(tree, tmp_path, "before")
        result = run_in_transaction(
            tree, "MutateAsset",
            {"target": ref, "mutation": "deleteLine", "line": 1},
            "op1", lambda t: check_tree(t, adapter), adapter=adapter)
        assert isinstance(result, RolledBack)
        assert "brace" in result.reason
        assert self._dump(tree, tmp_path, "after") == before

    def test_operation_error_rolls_back(self):
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": ["x"]})
        result = run_in_transaction(
            tree, "MutateAsset",
            {"target": "0:/r/a.mini", "mutation": "deleteLine", "line": 9},
            "op1", lambda p: [])
        assert isinstance(result, RolledBack)
        assert "BadIndex" in result.reason

    def test_checker_crash_rolls_back(self):
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": ["x"]})

        def boom(tree: AssetTree):
            raise RuntimeError("checker exploded")

        result = run_in_transaction(
            tree, "MutateAsset",
            {"target": "0:/r/a.mini", "mutation": "deleteLine", "line": 0},
            "op1", boom)
        assert isinstance(result, RolledBack)
        assert "checkerError" in result.reason
