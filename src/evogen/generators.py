"""Stochastic generators: they bind concrete parameters to operations.

Each generator is a pure function of (tree view, rng state, context): the same
inputs always yield the same candidate.  The transplant draw also marks the
donor test it draws as consumed in the context.  A generator returns None
when its candidate space is empty or when the sensibility check discards the
draw; the runner counts both as a retry.
"""

from __future__ import annotations

import random
from typing import Optional

from . import model
from .errors import EvogenError
from .history import _repo_files
from .model import FILE, MANIFEST_NAME, AssetNode, AssetTree, DonorProject, Value
from .operations import ADD_LINE, DELETE_LINE, REPLACE_LINE
from .refs import AssetRef, make_asset_ref, make_feature_ref, resolve_asset_ref
from .transplant import extract_organ, legal_insertion_points

GENERATOR_IDS = ("removeFeature", "mutAdd", "mutReplace", "mutDelete",
                 "transplant", "cloneVariant", "cloneFeature")


class CandidateOperation(Value):
    def __init__(self, kind: str, params: dict) -> None:
        self.kind = kind
        self.params = params


class GenContext:
    def __init__(self, adapter: object, sensibility_discard_prob: float = 0.5,
                 donors: Optional[dict[str, DonorProject]] = None,
                 consumed: Optional[set[tuple[str, str]]] = None) -> None:
        self.adapter = adapter
        self.sensibility_discard_prob = sensibility_discard_prob
        #: the donor projects of the run by id; read only
        self.donors = {} if donors is None else donors
        #: (donor id, test id) pairs already drawn; ``gen_transplant`` adds each
        #: test whose draw gets past the insertion point, committed or not
        self.consumed = set() if consumed is None else consumed


# -- the seven generators ----------------------------------------------------

def gen_remove_feature(tree: AssetTree, rng: random.Random,
                       ctx: GenContext) -> Optional[CandidateOperation]:
    """Uniform over all non-root features across all repositories."""
    pool = list(model.nonroot_features(tree))
    if not pool:
        return None
    repo, feature = pool[rng.randrange(len(pool))]
    ref = make_feature_ref(repo, feature)
    return CandidateOperation("RemoveFeature", {"feature": ref.to_text()})


def _gen_mutate(mutation: str, tree: AssetTree, rng: random.Random,
                ctx: GenContext) -> Optional[CandidateOperation]:
    """Uniform over the files with lines, except manifests, as the kept
    renders list them (preorder), then over the target's lines and, for a
    donor line, over the lines of the target's folder."""
    files = [rel for repo in tree.repositories
             for rel, data in _repo_files(repo).items()
             if data and rel.rpartition("/")[2] != MANIFEST_NAME]
    if not files:
        return None
    target_ref = AssetRef(tree.revision, "/" + files[rng.randrange(len(files))])
    lines = model.flatten_lines(resolve_asset_ref(tree, target_ref))
    l1 = rng.randrange(len(lines))
    donor_line = None
    if mutation in (ADD_LINE, REPLACE_LINE):
        folder = resolve_asset_ref(tree, AssetRef(
            tree.revision, target_ref.fs_path.rpartition("/")[0]))
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
    params = {"target": target_ref.to_text(), "mutation": mutation, "line": l1}
    if donor_line is not None:
        params["donor_line"] = donor_line
    return CandidateOperation("MutateAsset", params)


def gen_mut_add(tree, rng, ctx):
    return _gen_mutate(ADD_LINE, tree, rng, ctx)


def gen_mut_replace(tree, rng, ctx):
    return _gen_mutate(REPLACE_LINE, tree, rng, ctx)


def gen_mut_delete(tree, rng, ctx):
    return _gen_mutate(DELETE_LINE, tree, rng, ctx)


def gen_transplant(tree: AssetTree, rng: random.Random,
                   ctx: GenContext) -> Optional[CandidateOperation]:
    """Uniform over unconsumed modular donor tests x uniform over legal
    insertion points of a uniformly chosen repository."""
    pool = [(donor_id, cand) for donor_id in sorted(ctx.donors)
            for cand in ctx.donors[donor_id].test_candidates
            if cand.modular and (donor_id, cand.id) not in ctx.consumed]
    if not pool:
        return None
    donor_id, cand = pool[rng.randrange(len(pool))]
    repos = tree.repositories
    repo = repos[rng.randrange(len(repos))]
    points = legal_insertion_points(repo, ctx.adapter)
    if not points:
        return None
    target, idx = points[rng.randrange(len(points))]
    # drawn once: an unusable test is discarded, a usable one is not drawn
    # again whether or not its attempt commits
    ctx.consumed.add((donor_id, cand.id))
    try:
        organ = extract_organ(ctx.donors[donor_id], cand.id, ctx.adapter)
    except EvogenError:
        return None
    return CandidateOperation("TransplantFeature", {
        "repo": repo.name,
        "donor": donor_id,
        "test_id": cand.id,
        "test_name": cand.name,
        "insertion_parent": AssetRef(tree.revision, "/" + target).to_text(),
        "insertion_index": idx,
        "organ": organ,
    })


def gen_clone_variant(tree: AssetTree, rng: random.Random,
                      ctx: GenContext) -> Optional[CandidateOperation]:
    repos = tree.repositories
    if not repos:
        return None
    source = repos[rng.randrange(len(repos))]
    taken = {r.name for r in repos}
    n = 1
    while f"{source.name}_v{n}" in taken:
        n += 1
    return CandidateOperation("CloneVariant", {
        "source": make_asset_ref(tree, source).to_text(),
        "new_name": f"{source.name}_v{n}",
    })


def clone_feature_triples(tree: AssetTree) -> list[tuple[AssetNode, AssetNode, tuple[str, ...]]]:
    """All (source repo, target repo, feature path) combinations where the
    target originated from the source and the feature exists only in the
    source."""
    triples = []
    repos = tree.repositories
    for src in repos:
        if src.feature_model is None:
            continue
        for tgt in repos:
            if tgt is src or tgt.feature_model is None:
                continue
            if src.node_id not in tree.traces.lineage(tgt.node_id):
                continue
            tgt_features = list(tgt.feature_model.root.iter_features())
            tgt_origins = {f.origin for f in tgt_features}
            tgt_names = {f.name for f in tgt_features}
            for path, feature in src.feature_model.walk()[1:]:  # all but the root
                if feature.origin in tgt_origins or feature.name in tgt_names:
                    continue
                triples.append((src, tgt, path))
    return triples


def gen_clone_feature(tree: AssetTree, rng: random.Random,
                      ctx: GenContext) -> Optional[CandidateOperation]:
    triples = clone_feature_triples(tree)
    if not triples:
        return None
    src, tgt, path = triples[rng.randrange(len(triples))]
    feature = src.feature_model.find(path)
    return CandidateOperation("CloneFeature", {
        "source_repo": src.name,
        "target_repo": tgt.name,
        "feature": make_feature_ref(src, feature).to_text(),
        "target_parent": make_feature_ref(tgt, tgt.feature_model.root).to_text(),
        "plan": {},
    })


GENERATORS = {
    "removeFeature": gen_remove_feature,
    "mutAdd": gen_mut_add,
    "mutReplace": gen_mut_replace,
    "mutDelete": gen_mut_delete,
    "transplant": gen_transplant,
    "cloneVariant": gen_clone_variant,
    "cloneFeature": gen_clone_feature,
}


def generate(gen_id: str, tree: AssetTree, rng: random.Random,
             ctx: GenContext) -> Optional[CandidateOperation]:
    if gen_id not in GENERATORS:
        raise EvogenError(f"unknown generator {gen_id!r}")
    return GENERATORS[gen_id](tree, rng, ctx)
