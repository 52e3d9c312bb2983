"""Oracle for the path-carrying ref walk.

At every revision of seeded histories, and for every repository, each
``(node, ref)`` pair that ``repository_refs`` yields must equal
``make_asset_ref`` (one ``AssetTree.path_to`` search per node) and resolve
back to the node.  The counting tests pin that the meta-data writers no
longer search the tree once per ref, and that no code but ``make_asset_ref``
searches it at all.
"""

import json
import random
import sys

import pytest

from evogen.history import feature_state, read_ledger, replay_history
from evogen.minilang import MinilangAdapter
from evogen.model import FILE, AssetTree
from evogen.operations import apply_clone_variant
from evogen.refs import (AssetRef, make_asset_ref, repository_refs,
                         resolve_asset_ref, walk_asset_refs)
from evogen.runner import PRESET_NAMES, RunConfig, run

from conftest import (CLONE_FEATURE_MIX, build_repo, mix_config,
                      random_structured_tree)

ADAPTER = MinilangAdapter()

#: mix -> iterations; the three presets, then the variants mix
MIXES = {**{name: 100 for name in PRESET_NAMES}, "variants": 50}


#: selections the meta-data writers make, and one that cuts across kinds
SELECTIONS = [lambda n: n.mapped_features, lambda n: n.node_id % 3 == 0]


def assert_walk_matches_search(tree: AssetTree) -> int:
    """Check every repository's walk, whole and selective, against per-node
    search; return the number of pairs checked."""
    checked = 0
    for repo in tree.repositories:
        pairs = list(repository_refs(tree, repo))
        assert [id(node) for node, _ in pairs] == [id(n) for n in repo.iter_nodes()]
        for node, ref in pairs:
            assert ref == make_asset_ref(tree, node)
            assert resolve_asset_ref(tree, ref) is node
        for select in SELECTIONS:
            assert list(repository_refs(tree, repo, select)) == [
                (node, ref) for node, ref in pairs if select(node)]
        checked += len(pairs)
    return checked


@pytest.mark.parametrize("mix", MIXES)
def test_walk_equals_make_asset_ref_at_every_revision(mix, oracle_corpus, tmp_path,
                                                      adapter):
    system, donors = oracle_corpus
    summary = run(mix_config(mix, MIXES[mix]), system, donors, tmp_path / "out")
    revisions = 0
    for _, tree in replay_history(tmp_path / "out", adapter):
        assert assert_walk_matches_search(tree) > 0
        revisions += 1
    assert revisions == summary.committed_total + 1


@pytest.mark.parametrize("seed", range(20))
def test_walk_from_any_node_equals_search(seed):
    tree = random_structured_tree(random.Random(seed))
    assert_walk_matches_search(tree)
    for start in tree.root.iter_nodes():
        pairs = list(walk_asset_refs(start, make_asset_ref(tree, start)))
        for node, ref in pairs:
            assert ref == make_asset_ref(tree, node)
        for select in SELECTIONS:
            assert list(walk_asset_refs(start, make_asset_ref(tree, start), select)) == [
                (node, ref) for node, ref in pairs if select(node)]


def _three_mapped_repositories() -> AssetTree:
    tree = AssetTree()
    for name in ("a", "b", "c"):
        repo = build_repo(tree, name, {"src/x.mini": ["1"], "src/y.mini": ["2"],
                                       "z.mini": ["3"]})
        for node in repo.iter_nodes():
            if node.kind == FILE:
                node.mapped_features.add((name,))
    return tree


def _count_path_to(monkeypatch) -> list:
    """Patch ``AssetTree.path_to`` to append, per call, the name of the
    function that called it."""
    calls = []
    search = AssetTree.path_to

    def counting(self, node):
        calls.append(sys._getframe(1).f_code.co_name)
        return search(self, node)
    monkeypatch.setattr(AssetTree, "path_to", counting)
    return calls


def test_feature_state_searches_at_most_once_per_repository(monkeypatch):
    tree = _three_mapped_repositories()
    calls = _count_path_to(monkeypatch)
    state = json.loads(feature_state(tree))
    assert len(calls) <= len(tree.repositories) == 3
    assert [len(r["mappings"]) for r in state["repos"].values()] == [3, 3, 3]


def test_clone_variant_traces_search_once_per_side(monkeypatch):
    tree = _three_mapped_repositories()
    calls = _count_path_to(monkeypatch)
    source = AssetRef(tree.revision, "/b").to_text()
    apply_clone_variant(tree, {"source": source, "new_name": "b_v1"}, "op1", ADAPTER)
    assert len(calls) <= 2
    assert len(tree.traces.traces) == sum(1 for _ in tree.repositories[1].iter_nodes())


def test_only_make_asset_ref_searches_the_tree(monkeypatch, oracle_corpus, tmp_path,
                                               adapter):
    system, donors = oracle_corpus
    calls = _count_path_to(monkeypatch)
    config = RunConfig(distribution=CLONE_FEATURE_MIX, max_iterations=40, seed=3)
    run(config, system, donors, tmp_path / "out")
    for _ in replay_history(tmp_path / "out", adapter):
        pass
    sub_ops = {(record["kind"], sub["kind"])
               for record in read_ledger(tmp_path / "out") for sub in record["sub_ops"]}
    assert {("CloneFeature", "CloneAsset"), ("CloneFeature", "AddMapping"),
            ("CloneFeature", "UpdateManifest"), ("RemoveFeature", "RemoveAsset"),
            ("TransplantFeature", "AddAsset")} <= sub_ops
    assert calls and set(calls) == {make_asset_ref.__name__}
