import random
from collections import Counter

import pytest

from evogen.generators import (GENERATOR_IDS, GENERATORS, GenContext,
                               clone_feature_triples, generate,
                               gen_clone_feature, gen_clone_variant,
                               gen_remove_feature, gen_transplant)
from evogen.minilang import MinilangAdapter
from evogen.model import AssetTree, Feature, FILE
from evogen.operations import apply_clone_variant, execute
from evogen.refs import make_asset_ref

from conftest import build_repo, reference_clone_feature_triples

ADAPTER = MinilangAdapter()


class CountingList(list):
    """A list that counts the iterations over it."""
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


@pytest.fixture
def ctx(donors):
    return GenContext(adapter=ADAPTER, donors=donors)


def featured_tree(features=("F", "G")):
    tree = AssetTree()
    repo = build_repo(tree, "r", {"a.mini": ["def f {", "body", "}"],
                                  "b.mini": ["def g {", "}"]})
    repo.feature_model.root.children = [
        Feature(name, f"op_{name}") for name in features]
    return tree, repo


class TestDeterminism:
    @pytest.mark.parametrize("gen_id", GENERATOR_IDS)
    def test_same_seed_same_candidate(self, ctx, gen_id, initial_tree):
        tree = initial_tree
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, tree.repositories[0]).to_text(),
                   "new_name": "calc_v1"}, "op0", ADAPTER)
        tree.revision += 1
        a = generate(gen_id, tree, random.Random("s"), ctx)
        b = generate(gen_id, tree, random.Random("s"),
                     GenContext(adapter=ctx.adapter, donors=ctx.donors))
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
    def test_candidate_fields(self, ctx, initial_tree):
        cand = gen_transplant(initial_tree, random.Random(1), ctx)
        assert cand is not None and cand.kind == "TransplantFeature"
        assert cand.params["donor"] == "widget"
        assert "organ" in cand.params and cand.params["organ"]["body"]

    def test_consumed_pool_shrinks_to_none(self, ctx, initial_tree):
        donor = ctx.donors["widget"]
        modular = [c for c in donor.test_candidates if c.modular]
        ctx.consumed = {("widget", c.id) for c in modular}
        assert gen_transplant(initial_tree, random.Random(0), ctx) is None

    def test_nonmodular_never_drawn(self, ctx, initial_tree):
        for i in range(300):
            cand = gen_transplant(initial_tree, random.Random(i), ctx)
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
                                   "new_name": "r_v1"}, "op1", ADAPTER)
        tree.revision += 1
        v1 = tree.find_repository("r_v1")
        v1.feature_model.root.children = [
            f for f in v1.feature_model.root.children if f.name != "F"]
        return tree, repo, v1

    def test_triples_match_brute_force(self):
        tree, r, v1 = self._pruned_variant()
        triples = clone_feature_triples(tree)
        expected = reference_clone_feature_triples(tree)
        assert [(s.name, t.name, p) for s, t, p in triples] == expected
        assert expected == [("r", "r_v1", ("r", "F"))]

    def _counted_clones(self, clones):
        """The pruned variant's tree and source repository plus `clones`
        more clones, and the tree's trace list, which from then on counts
        the iterations over it."""
        tree, r, _ = self._pruned_variant()
        for n in range(clones):
            source = tree.repositories[n // 2]
            apply_clone_variant(tree, {"source": make_asset_ref(tree, source).to_text(),
                                       "new_name": f"c{n}"}, f"clone{n}", ADAPTER)
            tree.revision += 1
        traces = tree.traces.traces = CountingList(tree.traces.traces)
        return tree, r, traces

    @pytest.mark.parametrize("clones", [2, 6])
    def test_draw_iterates_no_trace_list(self, clones):
        """A draw never reads the trace list, however many repositories the
        tree holds: descent comes from the trace store's source map."""
        tree, _, traces = self._counted_clones(clones)
        assert clone_feature_triples(tree)
        assert len(tree.repositories) == clones + 2 and traces.iterations == 0

    @pytest.mark.parametrize("clones", [2, 6])
    def test_clone_feature_iterates_no_trace_list(self, clones):
        """CloneFeature, applied through ``execute``, decides relatedness and
        finds a twin, a missing twin and the integration index without
        reading the trace list."""
        tree, r, traces = self._counted_clones(clones)
        r.child_named("a.mini").mapped_features.add(("r", "F"))
        late = tree.new_node(FILE, "late.mini", content=["def late {", "}"])
        late.mapped_features.add(("r", "F"))
        r.children.append(late)
        record = execute(tree, "CloneFeature", {
            "source_repo": "r", "target_repo": "r_v1", "feature": "/r!F",
            "target_parent": "/r_v1!r", "plan": {}}, "op9", ADAPTER)
        assert [sub.kind for sub in record.sub_ops] == ["AddFeature", "AddMapping",
                                                        "CloneAsset"]
        assert traces.iterations == 0 and len(traces) > 0

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
