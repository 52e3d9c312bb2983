"""Oracle for the mutation draw.

``mutAdd``, ``mutReplace`` and ``mutDelete`` list their candidate files from
the renders kept on the repository nodes and resolve the target and its
folder by path.  On every mutation draw of seeded histories, the draw must
return the candidate, and leave the rng in the state, of a reference draw
that walks every node, counts every file's lines and searches the tree for
the target's folder and ref.  On random trees, which also hold empty and
structured files, the draw must equal the reference while ``path_to`` and
``make_asset_ref`` raise: it searches the tree for nothing.
"""

import random

import pytest

from evogen import generators, model, refs
from evogen.generators import CandidateOperation, GenContext
from evogen.model import FILE, MANIFEST_NAME
from evogen.operations import ADD_LINE, DELETE_LINE, REPLACE_LINE
from evogen.refs import make_asset_ref
from evogen.runner import PRESET_NAMES, run

from conftest import mix_config, random_structured_tree

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
    raise AssertionError("the mutation draw searched the tree")


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
