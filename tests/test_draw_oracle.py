"""Oracles for the draws and the LoC metric that read the kept render.

``mutAdd``, ``mutReplace`` and ``mutDelete`` list their candidate files from
the renders kept on the repository nodes and resolve the target and its
folder by path.  On every mutation draw of seeded histories, the draw must
return the candidate, and leave the rng in the state, of a reference draw
that walks every node, counts every file's lines and searches the tree for
the target's folder and ref.  On random trees, which also hold empty and
structured files, the draw must equal the reference while ``path_to`` and
``make_asset_ref`` raise: it searches the tree for nothing.

The transplant draw takes its insertion points from the same render and
writes the insertion parent's ref from the render path; ``stats`` counts a
repository's lines as the line breaks of its render.  On the same histories
each must equal a reference that walks nodes, flattens files and searches
the tree, and with the walks and searches made to raise, each still answers.
"""

import dataclasses
import random

import pytest

from evogen import generators, history, model, operations, refs, transplant
from evogen.errors import EvogenError
from evogen.generators import CandidateOperation, GenContext
from evogen.history import replay_history
from evogen.model import FILE, MANIFEST_NAME
from evogen.operations import ADD_LINE, DELETE_LINE, REPLACE_LINE, SLICES_DIR
from evogen.refs import make_asset_ref
from evogen.runner import PRESET_NAMES, run
from evogen.stats import loc_per_variant
from evogen.transplant import extract_organ

from conftest import build_repo, mix_config, random_structured_tree

#: mix -> iterations; the three presets, then the variants mix
MIXES = {**{name: 120 for name in PRESET_NAMES}, "variants": 50}


def reference_draw(mutation, tree, rng, ctx):
    """The mutation draw as a whole-tree walk and search: every file in
    preorder, its lines counted, the folder found by ``path_to`` and the
    target's ref minted by ``make_asset_ref``."""
    files = [node for node in tree.root.iter_nodes()
             if node.kind == FILE and node.name != MANIFEST_NAME
             and model.file_line_count(node) > 0]
    if not files:
        return None
    target = files[rng.randrange(len(files))]
    lines = model.flatten_lines(target)
    l1 = rng.randrange(len(lines))
    donor_line = None
    if mutation in (ADD_LINE, REPLACE_LINE):
        folder = tree.path_to(target)[-2]
        pool = [line for child in folder.children
                if child.kind == FILE and child.name != MANIFEST_NAME
                for line in model.flatten_lines(child)]
        donor_line = pool[rng.randrange(len(pool))]
    ineffective = (
        (mutation == ADD_LINE and not donor_line.strip())
        or (mutation == REPLACE_LINE and donor_line == lines[l1])
        or (mutation == DELETE_LINE and not lines[l1].strip())
    )
    if ineffective and rng.random() < ctx.sensibility_discard_prob:
        return None
    params = {"target": make_asset_ref(tree, target).to_text(),
              "mutation": mutation, "line": l1}
    if donor_line is not None:
        params["donor_line"] = donor_line
    return CandidateOperation("MutateAsset", params)


@pytest.mark.parametrize("mix", MIXES)
def test_draw_equals_reference_on_every_mutation_draw(mix, oracle_corpus, tmp_path,
                                                      monkeypatch):
    real_mutate = generators._gen_mutate
    drawn = dict.fromkeys((ADD_LINE, REPLACE_LINE, DELETE_LINE), 0)
    mismatches = []

    def checked_mutate(mutation, tree, rng, ctx):
        twin = random.Random()
        twin.setstate(rng.getstate())
        expected = reference_draw(mutation, tree, twin, ctx)
        candidate = real_mutate(mutation, tree, rng, ctx)
        drawn[mutation] += 1
        if candidate != expected or rng.getstate() != twin.getstate():
            mismatches.append((tree.revision, mutation, candidate, expected))
        return candidate

    monkeypatch.setattr(generators, "_gen_mutate", checked_mutate)
    system, donors = oracle_corpus
    run(mix_config(mix, MIXES[mix]), system, donors, tmp_path / "out")
    assert mismatches == []
    assert all(count > 0 for count in drawn.values()), drawn


def _raise(*args, **kwargs):
    raise AssertionError("a draw or a metric walked or searched the tree")


@pytest.mark.parametrize("seed", range(10))
def test_mutation_draw_searches_nothing(seed, monkeypatch):
    tree = random_structured_tree(random.Random(seed))
    ctx = GenContext(adapter=None)
    draws = [(mutation, f"{seed}/{n}") for mutation in (ADD_LINE, REPLACE_LINE, DELETE_LINE)
             for n in range(5)]

    def outcomes(draw):
        """(candidate, rng state after the draw) of each draw."""
        out = []
        for mutation, key in draws:
            rng = random.Random(key)
            out.append((draw(mutation, tree, rng, ctx), rng.getstate()))
        return out

    expected = outcomes(reference_draw)
    monkeypatch.setattr(model.AssetTree, "path_to", _raise)
    monkeypatch.setattr(refs, "make_asset_ref", _raise)
    monkeypatch.setattr(generators, "make_asset_ref", _raise)
    assert outcomes(generators._gen_mutate) == expected


# -- the transplant draw and the LoC metric ----------------------------------

def reference_transplant(tree, rng, ctx):
    """The transplant draw as a walk and a search: every file of the drawn
    repository outside its slices flattened, and the insertion parent's ref
    minted by ``make_asset_ref``."""
    pool = [(donor_id, cand) for donor_id in sorted(tree.donors)
            for cand in tree.donors[donor_id].test_candidates
            if cand.modular and (donor_id, cand.id) not in ctx.consumed]
    if not pool:
        return None
    donor_id, cand = pool[rng.randrange(len(pool))]
    repos = tree.repositories
    repo = repos[rng.randrange(len(repos))]
    slices = repo.child_named(SLICES_DIR)
    excluded = {n.node_id for n in slices.iter_nodes()} if slices is not None else set()
    points = [(node, idx) for node in repo.iter_nodes()
              if node.kind == FILE and node.name != MANIFEST_NAME
              and node.node_id not in excluded
              for idx in ctx.adapter.insertion_points(model.flatten_lines(node))]
    if not points:
        return None
    target, idx = points[rng.randrange(len(points))]
    try:
        organ = extract_organ(tree.donors[donor_id], cand.id, ctx.adapter)
    except EvogenError:
        ctx.consumed.add((donor_id, cand.id))
        return None
    return CandidateOperation("TransplantFeature", {
        "repo": repo.name, "donor": donor_id, "test_id": cand.id,
        "test_name": cand.name,
        "insertion_parent": make_asset_ref(tree, target).to_text(),
        "insertion_index": idx, "organ": organ.to_params()})


def reference_loc(tree):
    """LoC per repository as a whole-tree walk: every file's lines counted."""
    return {repo.name: sum(model.file_line_count(node) for node in repo.iter_nodes()
                           if node.kind == FILE)
            for repo in tree.repositories}


def _reference_outcome(tree, rng, ctx):
    """(candidate, rng state, consumed set) of a reference draw, taken on
    copies of the rng and of the consumed set."""
    twin = random.Random()
    twin.setstate(rng.getstate())
    twin_ctx = dataclasses.replace(ctx, consumed=set(ctx.consumed))
    return reference_transplant(tree, twin, twin_ctx), twin.getstate(), twin_ctx.consumed


@pytest.fixture(scope="module", params=MIXES)
def transplant_checked_history(request, oracle_corpus, tmp_path_factory):
    """A seeded history whose every transplant draw was compared with the
    reference: (output dir, mismatches, drawn candidates)."""
    mix = request.param
    real_transplant = generators.gen_transplant
    mismatches, candidates = [], []

    def checked_transplant(tree, rng, ctx):
        expected = _reference_outcome(tree, rng, ctx)
        candidate = real_transplant(tree, rng, ctx)
        candidates.append(candidate)
        if (candidate, rng.getstate(), ctx.consumed) != expected:
            mismatches.append((tree.revision, candidate, expected[0]))
        return candidate

    out = tmp_path_factory.mktemp(mix) / "out"
    system, donors = oracle_corpus
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(generators.GENERATORS, "transplant", checked_transplant)
        run(mix_config(mix, MIXES[mix]), system, donors, out)
    return out, mismatches, candidates


def test_transplant_draw_equals_reference_on_every_draw(transplant_checked_history):
    _, mismatches, candidates = transplant_checked_history
    assert mismatches == []
    assert any(candidate is not None for candidate in candidates)


def test_loc_equals_reference_at_every_replayed_revision(transplant_checked_history,
                                                         adapter):
    out, _, _ = transplant_checked_history
    revisions = mismatches = 0
    for _, tree in replay_history(out, adapter):
        revisions += 1
        mismatches += loc_per_variant(tree) != reference_loc(tree)
    assert mismatches == 0
    assert revisions > 1


def _forbid_walks_and_searches(monkeypatch):
    monkeypatch.setattr(model.AssetNode, "iter_nodes", _raise)
    monkeypatch.setattr(model.AssetTree, "path_to", _raise)
    for module in (refs, operations, history, generators, transplant):
        monkeypatch.setattr(module, "make_asset_ref", _raise)


@pytest.mark.parametrize("seed", range(10))
def test_loc_walks_nothing(seed, monkeypatch):
    tree = random_structured_tree(random.Random(seed))
    build_repo(tree, "extra", {"a.mini": ["1", "2"], "d/b.mini": ["3"], "d/e/c.mini": []})
    expected = reference_loc(tree)
    _forbid_walks_and_searches(monkeypatch)
    assert loc_per_variant(tree) == expected


def test_transplant_draw_walks_nothing(loaded_tree, adapter, monkeypatch):
    ctx = GenContext(adapter=adapter)
    rng = random.Random("transplant")
    expected = _reference_outcome(loaded_tree, rng, ctx)
    assert expected[0] is not None
    _forbid_walks_and_searches(monkeypatch)
    candidate = generators.gen_transplant(loaded_tree, rng, ctx)
    assert (candidate, rng.getstate(), ctx.consumed) == expected
