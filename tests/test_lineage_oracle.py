"""Oracle for the repository lineage map.

At every cloneFeature draw and at every replayed revision of seeded
clone-heavy histories, descent and relatedness read from
``AssetTree.clone_ancestors`` equal a breadth-first walk over the whole trace
list, and the draw's triples equal the reference enumeration.
"""

import pytest

from evogen import generators
from evogen.history import replay_history
from evogen.minilang import MinilangAdapter
from evogen.runner import RunConfig, run

from conftest import (CLONE_FEATURE_MIX, VARIANTS_MIX, lineage_mismatches,
                      reference_clone_feature_triples)

#: each history clones a clone, so some chain has two hops or more
HISTORIES = {"cloneFeature mix": (CLONE_FEATURE_MIX, 3, 60),
             "variants mix": (VARIANTS_MIX, 3, 60)}


def _direct_sources_only(chains: dict[int, list[int]]) -> dict[int, list[int]]:
    """The negative control: each chain cut after the repository's direct
    source."""
    return {repo_id: chain[:2] for repo_id, chain in chains.items()}


@pytest.mark.parametrize("history", HISTORIES)
def test_lineage_map_equals_the_trace_walk(oracle_corpus, tmp_path, monkeypatch, history):
    mix, seed, iterations = HISTORIES[history]
    system, donors = oracle_corpus
    failures, control, depths = [], [], []

    def check(tree, where):
        chains = tree.clone_ancestors()
        depths.append(max(len(chain) for chain in chains.values()))
        failures.extend((where, pair) for pair in lineage_mismatches(tree, chains))
        control.extend(lineage_mismatches(tree, _direct_sources_only(chains)))

    draw = generators.clone_feature_triples
    draws = []

    def checked_draw(tree):
        triples = draw(tree)
        where = f"draw {len(draws)}"
        draws.append(where)
        if [(s.name, t.name, p) for s, t, p in triples] != reference_clone_feature_triples(tree):
            failures.append((where, "triples"))
        check(tree, where)
        return triples

    monkeypatch.setattr(generators, "clone_feature_triples", checked_draw)
    out = tmp_path / "out"
    run(RunConfig(distribution=mix, max_iterations=iterations, seed=seed), system, donors, out)
    for revision, tree in replay_history(out, MinilangAdapter()):
        check(tree, f"revision {revision}")

    assert draws and failures == []
    # a two-hop chain exists, and a map of direct sources gets it wrong
    assert max(depths) >= 3 and control
