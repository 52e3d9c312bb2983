"""Oracle for clone lineage and correspondence.

At every cloneFeature draw and at every replayed revision of seeded
clone-heavy histories, descent and relatedness read from ``TraceDb.lineage``
equal a breadth-first walk over the whole trace list, and the draw's triples
equal the reference enumeration.  At every ``AssetTree.corresponding_asset``
call, the answer is ``reference_corresponding_asset``'s, the breadth-first
walk it replaced.  At every replayed revision the two invariants the lineage
map rests on hold: it holds one entry per trace, and no repository holds two
nodes of one lineage.  With every lineage cut after the direct source, the
chain check and the correspondence check must both fail.
"""

import copy

import pytest

from evogen import generators, model
from evogen.history import replay_history
from evogen.minilang import MinilangAdapter
from evogen.model import AssetTree, TraceDb
from evogen.runner import RunConfig, run

from conftest import (CLONE_FEATURE_MIX, VARIANTS_MIX, lineage_mismatches,
                      reference_clone_feature_triples, reference_corresponding_asset)

#: each history clones a clone, so some chain has two hops or more
HISTORIES = {"cloneFeature mix": (CLONE_FEATURE_MIX, 3, 60),
             "variants mix": (VARIANTS_MIX, 3, 60)}


class DirectSourceOnly(TraceDb):
    """The negative control: a view of a store whose lineage stops after
    the node's direct source."""

    def __init__(self, traces: TraceDb) -> None:
        super().__init__()
        self.traces, self.source = traces.traces, traces.source

    def lineage(self, node_id: int) -> list[int]:
        return super().lineage(node_id)[:2]


def _chains(tree: AssetTree, traces: TraceDb) -> dict[int, list[int]]:
    return {repo.node_id: traces.lineage(repo.node_id) for repo in tree.repositories}


def invariant_problems(tree: AssetTree) -> list[str]:
    """What breaks the two invariants of the lineage map in `tree`."""
    problems = []
    if len(tree.traces.source) != len(tree.traces.traces):
        problems.append(f"{len(tree.traces.source)} sources for"
                        f" {len(tree.traces.traces)} traces")
    for repo in tree.repositories:
        roots = [tree.traces.lineage(n.node_id)[-1] for n in repo.iter_nodes()]
        if len(set(roots)) != len(roots):
            problems.append(f"{repo.name} holds two nodes of one lineage")
    return problems


@pytest.mark.parametrize("history", HISTORIES)
def test_lineage_map_equals_the_trace_walk(oracle_corpus, tmp_path, monkeypatch, history):
    mix, seed, iterations = HISTORIES[history]
    system, donors = oracle_corpus
    failures, control, depths, answers = [], [], [], []

    def check(tree, where):
        chains = _chains(tree, tree.traces)
        depths.append(max(len(chain) for chain in chains.values()))
        failures.extend((where, pair) for pair in lineage_mismatches(tree, chains))
        control.extend(lineage_mismatches(tree, _chains(tree, DirectSourceOnly(tree.traces))))

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

    correspond = AssetTree.corresponding_asset
    cut_answers = []

    def checked_correspond(tree, node, target_repo):
        answer = correspond(tree, node, target_repo)
        expected = reference_corresponding_asset(tree, node, target_repo)
        if answer is not expected:
            failures.append((f"call {len(answers)}", "corresponding asset"))
        answers.append(answer)
        cut = copy.copy(tree)
        cut.traces = DirectSourceOnly(tree.traces)
        cut_answers.append(correspond(cut, node, target_repo) is expected)
        return answer

    monkeypatch.setattr(generators, "clone_feature_triples", checked_draw)
    monkeypatch.setattr(model.AssetTree, "corresponding_asset", checked_correspond)
    out = tmp_path / "out"
    run(RunConfig(distribution=mix, max_iterations=iterations, seed=seed), system, donors, out)
    for revision, tree in replay_history(out, MinilangAdapter()):
        check(tree, f"revision {revision}")
        failures.extend((f"revision {revision}", p) for p in invariant_problems(tree))

    assert draws and failures == []
    # a two-hop chain exists, and a map of direct sources gets it wrong
    assert max(depths) >= 3 and control
    # some calls find a twin and some do not, and the cut lineage gets one wrong
    assert any(a is None for a in answers) and any(a is not None for a in answers)
    assert not all(cut_answers)
