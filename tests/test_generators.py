import random
from collections import Counter

import pytest

from evogen.generators import (GENERATOR_IDS, GENERATORS, GenContext,
                               clone_feature_triples, generate,
                               gen_clone_feature, gen_clone_variant,
                               gen_remove_feature, gen_transplant)
from evogen.minilang import MinilangAdapter
from evogen.model import AssetTree, Feature
from evogen.operations import apply_clone_variant
from evogen.refs import make_asset_ref

from conftest import build_repo


@pytest.fixture
def ctx():
    return GenContext(adapter=MinilangAdapter())


def featured_tree(features=("F", "G")):
    tree = AssetTree()
    repo = build_repo(tree, "r", {"a.mini": ["def f {", "body", "}"],
                                  "b.mini": ["def g {", "}"]})
    repo.feature_model.root.children = [
        Feature(name, f"op_{name}") for name in features]
    return tree, repo


class TestDeterminism:
    @pytest.mark.parametrize("gen_id", GENERATOR_IDS)
    def test_same_seed_same_candidate(self, ctx, gen_id, loaded_tree):
        tree = loaded_tree
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, tree.repositories[0]).to_text(),
                   "new_name": "calc_v1"}, "op0")
        tree.revision += 1
        a = generate(gen_id, tree, random.Random("s"), ctx)
        b = generate(gen_id, tree, random.Random("s"),
                     GenContext(adapter=ctx.adapter))
        assert a == b


class TestRemoveFeature:
    def test_uniform_over_features(self, ctx):
        tree, _ = featured_tree(("F", "G", "H"))
        counts = Counter()
        for i in range(3000):
            cand = gen_remove_feature(tree, random.Random(i), ctx)
            counts[cand.params["feature"]] += 1
        assert len(counts) == 3
        for v in counts.values():
            assert abs(v - 1000) < 150

    def test_empty_pool_returns_none(self, ctx):
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": ["x"]})
        assert gen_remove_feature(tree, random.Random(0), ctx) is None


class TestMutations:
    def test_add_draws_from_folder_pool(self, ctx):
        tree, repo = featured_tree()
        folder_lines = {"def f {", "body", "}", "def g {"}
        for i in range(200):
            cand = generate("mutAdd", tree, random.Random(i), ctx)
            if cand is None:
                continue
            assert cand.kind == "MutateAsset"
            assert cand.params["donor_line"] in folder_lines | {"}"}

    def test_identical_replace_sometimes_discarded(self):
        # single-line file whose folder pool is just that line: every draw is
        # ineffective, so about half are discarded at prob 0.5
        ctx = GenContext(adapter=MinilangAdapter(), sensibility_discard_prob=0.5)
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": ["only"]})
        outcomes = [generate("mutReplace", tree, random.Random(i), ctx)
                    for i in range(1000)]
        discarded = sum(1 for o in outcomes if o is None)
        assert 380 < discarded < 620

    def test_discard_prob_zero_never_discards(self):
        ctx = GenContext(adapter=MinilangAdapter(), sensibility_discard_prob=0.0)
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": ["only"]})
        assert all(generate("mutReplace", tree, random.Random(i), ctx)
                   for i in range(200))

    def test_no_files_returns_none(self, ctx):
        tree = AssetTree()
        build_repo(tree, "r", {"project.manifest": ["name: r"]})
        for gen_id in ("mutAdd", "mutReplace", "mutDelete"):
            assert generate(gen_id, tree, random.Random(0), ctx) is None


class TestTransplant:
    def test_candidate_fields(self, ctx, loaded_tree):
        cand = gen_transplant(loaded_tree, random.Random(1), ctx)
        assert cand is not None and cand.kind == "TransplantFeature"
        assert cand.params["donor"] == "widget"
        assert "organ" in cand.params and cand.params["organ"]["body"]

    def test_consumed_pool_shrinks_to_none(self, ctx, loaded_tree):
        donor = loaded_tree.donors["widget"]
        modular = [c for c in donor.test_candidates if c.modular]
        ctx.consumed = {("widget", c.id) for c in modular}
        assert gen_transplant(loaded_tree, random.Random(0), ctx) is None

    def test_nonmodular_never_drawn(self, ctx, loaded_tree):
        for i in range(300):
            cand = gen_transplant(loaded_tree, random.Random(i), ctx)
            assert cand is None or "helper" not in cand.params["test_name"]


class TestCloneVariant:
    def test_fresh_version_suffix(self, ctx):
        tree, repo = featured_tree()
        build_repo(tree, "r_v1", {})
        for i in range(50):
            cand = gen_clone_variant(tree, random.Random(i), ctx)
            if cand.params["source"].endswith("/r"):
                assert cand.params["new_name"] == "r_v2"
            else:
                assert cand.params["new_name"] == "r_v1_v1"

    def test_empty_tree_returns_none(self, ctx):
        assert gen_clone_variant(AssetTree(), random.Random(0), ctx) is None


class TestCloneFeature:
    def _pruned_variant(self):
        tree, repo = featured_tree(("F", "G"))
        apply_clone_variant(tree, {"source": make_asset_ref(tree, repo).to_text(),
                                   "new_name": "r_v1"}, "op1")
        tree.revision += 1
        v1 = tree.find_repository("r_v1")
        v1.feature_model.root.children = [
            f for f in v1.feature_model.root.children if f.name != "F"]
        return tree, repo, v1

    def test_triples_match_brute_force(self):
        tree, r, v1 = self._pruned_variant()
        triples = clone_feature_triples(tree)
        expected = set()
        for src in tree.repositories:
            for tgt in tree.repositories:
                if src is tgt or not tree.repository_descends_from(src, tgt):
                    continue
                tgt_feats = list(tgt.feature_model.root.iter_features())
                for path in src.feature_model.paths():
                    if len(path) < 2:
                        continue
                    f = src.feature_model.find(path)
                    if any(g.origin == f.origin or g.name == f.name
                           for g in tgt_feats):
                        continue
                    expected.add((src.name, tgt.name, path))
        assert {(s.name, t.name, p) for s, t, p in triples} == expected
        assert expected == {("r", "r_v1", ("r", "F"))}

    def test_candidate_targets_model_root(self, ctx):
        tree, r, v1 = self._pruned_variant()
        cand = gen_clone_feature(tree, random.Random(0), ctx)
        assert cand.params == {
            "source_repo": "r", "target_repo": "r_v1",
            "feature": "/r!F", "target_parent": "/r_v1!r", "plan": {}}

    def test_unrelated_repos_yield_none(self, ctx):
        tree, _ = featured_tree()
        build_repo(tree, "other", {})
        assert gen_clone_feature(tree, random.Random(0), ctx) is None

    def test_direction_respects_lineage(self, ctx):
        # features born later in the ancestor must flow ancestor -> clone,
        # and features born in the clone flow clone-ward only via descent
        tree, r, v1 = self._pruned_variant()
        v1.feature_model.root.children.append(Feature("H", "op_H"))
        triples = {(s.name, t.name, p) for s, t, p in clone_feature_triples(tree)}
        assert ("r", "r_v1", ("r", "F")) in triples
        assert ("r_v1", "r", ("r", "H")) not in triples


class TestRegistry:
    def test_all_ids_registered(self):
        assert set(GENERATOR_IDS) == set(GENERATORS)

    def test_unknown_generator_raises(self, ctx):
        from evogen.errors import EvogenError
        with pytest.raises(EvogenError):
            generate("nope", AssetTree(), random.Random(0), ctx)
