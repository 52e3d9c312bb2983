"""Oracles for the values kept on repository nodes, the in-memory
compilability gate and transactions.

A repository's render, check context, per-source problems, problems and
feature-state fragment are kept on its node (``AssetNode.derived``).  On every
attempt of seeded histories, rolled-back ones included, and at every revision
``validate_history`` replays, each kept value must equal the same value
computed afresh on a copy of the node, and the gate's problem list must equal
``check_snapshot_dir`` on a materialized copy of the tree, and ``check_files``
on each repository's render must equal ``reference_check_listing``, the check
as first written over tuple paths.  A repository an attempt does not ``own``
keeps the problem list the input tree's check left on it; one that a line edit
owns by path keeps its check context and every source's problems but the
edited file's.  With ``own`` disabled, with the fragment carried across every
edit, or with the edited file's problems carried, the oracle must find stale
values.  On the same attempts, ``run_in_transaction`` must leave its input
tree as it found it, traces included, and its scratch copy must share every
repository it did not ``own`` with the input tree, hold a separate copy, with
the same node ids, of the one another operation owned, and, for a line edit,
copy only the nodes on the edited file's path and that file's subtree.  With
``own`` ignoring the path, or with ``TraceDb.add`` appending to a list, or
writing to a target -> source map, that another tree holds, that oracle must
fail.
"""

import copy
import shutil
from collections import Counter
from functools import cache
from operator import attrgetter
from typing import Optional

import pytest

from evogen import history, model, runner
from evogen.history import (_repo_files, _repo_fragment, materialize_tree,
                            validate_history)
from evogen.operations import Committed
from evogen.minilang import (MinilangAdapter, check_context, check_files,
                             check_snapshot_dir, source_problems)
from evogen.runner import PRESET_NAMES, run

from conftest import mix_config, reference_check_repository, reference_feature_state

#: mix -> iterations; the three presets, then the variants mix
MIXES = {**{name: 120 for name in PRESET_NAMES}, "variants": 50}


def _config(mix: str):
    return mix_config(mix, MIXES[mix])


class FirstStaleValue(Exception):
    """Stops a run once the oracle has found a stale value."""


def _fresh_sources(twin: model.AssetNode, adapter) -> dict:
    """The check context and each source's problems of a repository node,
    computed afresh from its render."""
    prefix = f"{twin.name}/"
    files = {rel[len(prefix):]: data.decode().splitlines()
             for rel, data in _repo_files(twin).items() if data is not None}
    context = check_context(files, files.__getitem__, adapter)
    return {"context": context,
            "sources": {path: source_problems(context, path, in_slice, files[path], adapter)
                        for path, in_slice in context.sources}}


def _check_kept(tree: model.AssetTree, adapter, seen: dict, phase: str) -> None:
    """Compare every value kept on a repository node of `tree` with the value
    computed afresh on a copy of the node; count it in ``seen["checked"]``
    and list it in ``seen["stale in <phase>"]`` when they differ.  A render
    entry marked ``edited`` is left out, and each edited node must be the
    file at its path."""
    for repo in tree.repositories:
        twin = model._copy_node(repo, attrgetter("node_id"))
        edited = repo.derived.get("edited", {})
        pending = {f"{repo.name}/{path}" for path in edited}
        check = cache(lambda: _fresh_sources(twin, adapter))
        fresh = {"files": lambda: {rel: data for rel, data in _repo_files(twin).items()
                                   if rel not in pending},
                 "edited": lambda: {path: _file_at(repo, path) for path in edited},
                 "context": lambda: check()["context"],
                 "sources": lambda: check()["sources"],
                 "problems": lambda: check_files(_repo_files(twin), adapter),
                 "fragment": lambda: _repo_fragment(tree, twin)}
        for key, value in repo.derived.items():
            seen["checked"][f"{key} in {phase}"] += 1
            if key == "files":
                value = {rel: data for rel, data in value.items() if rel not in pending}
            if value != fresh[key]():
                seen[f"stale in {phase}"].append(f"{repo.name}: {key}")


def _file_at(repo: model.AssetNode, path: str) -> model.AssetNode:
    node = repo
    for name in path.split("/"):
        node = node.child_named(name)
    return node


def _check_against_reference(tree: model.AssetTree, adapter, seen: dict) -> None:
    """List in ``seen["check vs reference"]`` each repository of `tree` whose
    render ``check_files`` checks otherwise than the reference check."""
    for repo in tree.repositories:
        prefix = f"{repo.name}/"
        render = _repo_files(repo)
        files = {rel[len(prefix):]: data.decode().splitlines()
                 for rel, data in render.items() if data is not None}
        if check_files(render, adapter) != [
                prefix + problem for problem in reference_check_repository(files, adapter)]:
            seen["check vs reference"].append(repo.name)


def _seen() -> dict:
    return {"stale in generate": [], "stale in validate": [], "gate vs disk": [],
            "problems not reused": [], "check vs reference": [], "verdicts": [],
            "replayed": 0, "checked": Counter()}


def _generate(config, corpus, out, tmp_path, monkeypatch, seen: dict,
              stop_at_stale: bool = False) -> None:
    """Generate a history, checking every attempt; with `stop_at_stale`,
    raise FirstStaleValue after the first attempt that left a stale value,
    before any later draw reads it."""
    make_checker = runner.make_checker
    real_transaction = runner.run_in_transaction
    #: the attempt's kind, and its input tree's repository nodes with the
    #: values kept on them, by name
    attempt: dict = {"kind": None, "inputs": {}}

    def check_reuse(tree) -> None:
        """A repository the attempt did not own keeps its problem list; one
        a line edit owned keeps its check context and the problem list of
        every source but at most one."""
        for repo in tree.repositories:
            node, kept = attempt["inputs"].get(repo.name, (None, {}))
            if repo is node:
                if kept.get("problems") is None or \
                        repo.derived["problems"] is not kept["problems"]:
                    seen["problems not reused"].append(repo.name)
            elif node is not None and attempt["kind"] == "MutateAsset":
                if repo.derived["context"] is not kept["context"]:
                    seen["problems not reused"].append(f"{repo.name}: context")
                read_again = [path for path, found in repo.derived["sources"].items()
                              if found is not kept["sources"].get(path)]
                if len(read_again) > 1:
                    seen["problems not reused"].append(f"{repo.name}: {read_again}")

    def oracle_checker(config, adapter):
        in_memory = make_checker(config, adapter)

        def checker(tree):
            problems = in_memory(tree)
            _check_kept(tree, adapter, seen, "generate")
            _check_against_reference(tree, adapter, seen)
            check_reuse(tree)
            snap = tmp_path / "snap"
            materialize_tree(tree, snap)
            on_disk = check_snapshot_dir(snap, adapter)
            shutil.rmtree(snap)
            seen["verdicts"].append(not problems)
            if problems != on_disk:
                seen["gate vs disk"].append((problems, on_disk))
            return problems
        return checker

    def transaction(tree, kind, *args, adapter, **kwargs):
        attempt["kind"] = kind
        attempt["inputs"] = {repo.name: (repo, dict(repo.derived))
                             for repo in tree.repositories}
        result = real_transaction(tree, kind, *args, adapter=adapter, **kwargs)
        _check_kept(tree, adapter, seen, "generate")
        if stop_at_stale and seen["stale in generate"]:
            raise FirstStaleValue(seen["stale in generate"])
        return result

    monkeypatch.setattr(runner, "make_checker", oracle_checker)
    monkeypatch.setattr(runner, "run_in_transaction", transaction)
    system, donors = corpus
    seen["summary"] = run(config, system, donors, out)


def _validate(out, monkeypatch, seen: dict) -> None:
    """Validate a history, checking the kept values at every replayed
    revision."""
    real_replay = history.replay_records

    def replay(tree, records, adapter):
        for revision, tree in real_replay(tree, records, adapter):
            yield revision, tree
            # resumed once validate has checked this revision
            _check_kept(tree, adapter, seen, "validate")
            seen["replayed"] += 1

    monkeypatch.setattr(history, "replay_records", replay)
    seen["report"] = validate_history(out, MinilangAdapter())


@pytest.mark.parametrize("mix", MIXES)
def test_in_memory_check_equals_disk_check_on_every_attempt(mix, oracle_corpus, tmp_path,
                                                             monkeypatch):
    seen = _seen()
    _generate(_config(mix), oracle_corpus, tmp_path / "out", tmp_path, monkeypatch, seen)
    _validate(tmp_path / "out", monkeypatch, seen)
    committed = seen["summary"].committed_total
    assert seen["report"].ok, seen["report"].violations
    assert seen["stale in generate"] == []
    assert seen["stale in validate"] == []
    assert seen["gate vs disk"] == []
    assert seen["problems not reused"] == []
    assert seen["check vs reference"] == []
    assert seen["replayed"] == committed + 1
    # every kind of kept value was seen
    assert set(seen["checked"]) == {
        f"{key} in {phase}" for phase in ("generate", "validate")
        for key in ("files", "context", "sources", "problems", "fragment")}
    assert seen["verdicts"].count(True) == committed + 1  # + revision 0
    assert seen["verdicts"].count(False) > 0


@pytest.mark.parametrize("mix", MIXES)
def test_oracle_finds_stale_values_when_own_does_nothing(mix, oracle_corpus, tmp_path,
                                                         monkeypatch):
    """With ``own`` a no-op, changes land in place on nodes whose kept values
    stay.  Generate stops at the first stale value, before a draw reads a
    stale render; validate replays a history generated with ``own`` intact."""
    system, donors = oracle_corpus
    run(_config(mix), system, donors, tmp_path / "out")
    monkeypatch.setattr(model.AssetTree, "own", lambda tree, name, path=None: None)
    seen = _seen()
    with pytest.raises(FirstStaleValue):
        _generate(_config(mix), oracle_corpus, tmp_path / "stopped", tmp_path,
                  monkeypatch, seen, stop_at_stale=True)
    _validate(tmp_path / "out", monkeypatch, seen)
    assert seen["stale in generate"] != []
    assert seen["stale in validate"] != []


def _carry_also(monkeypatch, key: str) -> None:
    """Make the carry rule keep, across every line edit, the `key` value it
    drops: the fragment, or the edited file's problem list."""
    real_carried = model._carried

    def carried(derived, path=None, file=None):
        kept = real_carried(derived, path, file)
        if file is not None and key == "fragment" and "fragment" in derived:
            kept["fragment"] = derived["fragment"]
        if file is not None and key == "sources" and path in derived.get("sources", {}):
            kept["sources"][path] = derived["sources"][path]
        return kept

    monkeypatch.setattr(model, "_carried", carried)


@pytest.mark.parametrize("key", ["fragment", "sources"])
def test_oracle_finds_stale_values_when_an_edit_carries_too_much(key, oracle_corpus,
                                                                 tmp_path, monkeypatch):
    """A fragment carried across an edit of a file that holds a mapped
    block is stale; so are the edited file's problems, when carried, and the
    repository's problems joined from them."""
    _carry_also(monkeypatch, key)
    seen = _seen()
    with pytest.raises(FirstStaleValue):
        _generate(_config("growing-system"), oracle_corpus, tmp_path / "stopped",
                  tmp_path, monkeypatch, seen, stop_at_stale=True)
    assert key in {stale.partition(": ")[2] for stale in seen["stale in generate"]}


def _path_copy_problem(old: model.AssetNode, new: model.AssetNode) -> Optional[str]:
    """Why `new` is not a copy of repository `old` along one path, or None:
    every node from the repository node to one file, and every node of that
    file's subtree, must be a copy with the same id, and every other node
    must be shared."""
    while True:
        if new is old or new.node_id != old.node_id:
            return f"{old.name} not copied with its id"
        if new.kind == model.FILE:
            if {id(n) for n in new.iter_nodes()} & {id(n) for n in old.iter_nodes()}:
                return f"file {old.name} shares nodes"
            return None
        copied = [(o, n) for o, n in zip(old.children, new.children) if o is not n]
        if len(old.children) != len(new.children) or len(copied) != 1:
            return f"{old.name}: {len(copied)} children copied"
        old, new = copied[0]


def _transaction_oracle(mix, oracle_corpus, tmp_path, monkeypatch) -> dict:
    """Generate a history and record, at every transaction, each way it
    changed its input tree or failed to share it with its scratch copy."""
    config = _config(mix)
    real_run_in_transaction = runner.run_in_transaction
    real_clone = model.AssetTree.clone
    seen = {"committed": 0, "rolled back": 0, "changed": [], "owned": Counter(),
            "loaded": []}
    changed = seen["changed"]
    copies: list[model.AssetTree] = []
    real_load_donor = runner.load_donor

    def recording_load_donor(*args):
        seen["loaded"].append(real_load_donor(*args))
        return seen["loaded"][-1]

    def recording_clone(tree):
        copies.append(real_clone(tree))
        return copies[-1]

    def check_sharing(tree, scratch, kind):
        """Repositories the attempt did not own are the input tree's own
        objects.  A line edit's repository is a copy along the edited
        file's path; any other owned one is a separate copy of the same
        nodes.  At most one repository is owned."""
        owned = 0
        for repo in tree.repositories:
            mine = scratch.find_repository(repo.name)
            if mine is repo:
                continue
            owned += 1
            if kind == "MutateAsset":
                problem = _path_copy_problem(repo, mine)
                if problem:
                    changed.append((tree.revision, f"line edit: {problem}"))
            elif mine.node_id != repo.node_id or (
                    {id(n) for n in mine.iter_nodes()} & {id(n) for n in repo.iter_nodes()}):
                changed.append((tree.revision, f"{repo.name} owned but shared"))
        if owned > 1:
            changed.append((tree.revision, f"{owned} repositories owned"))
        seen["owned"][kind] += owned

    def state(tree):
        fresh = {}  # rendered from copies, so no kept render hides a change
        for repo in tree.repositories:
            fresh.update(_repo_files(model._copy_node(repo, attrgetter("node_id"))))
        traces = tree.traces.traces
        return {"render": fresh,
                "feature state": reference_feature_state(tree),
                "traces": (len(traces), list(traces), dict(tree.traces.source)),
                "donors": [copy.deepcopy(vars(d)) for d in seen["loaded"]]}

    def checked_transaction(tree, kind, *args, **kwargs):
        before = state(tree)
        copies.clear()
        result = real_run_in_transaction(tree, kind, *args, **kwargs)
        after = state(tree)
        assert len(copies) == 1
        check_sharing(tree, copies[0], kind)
        changed.extend((tree.revision, part) for part in before
                       if before[part] != after[part])
        seen["committed" if isinstance(result, Committed) else "rolled back"] += 1
        return result

    monkeypatch.setattr(runner, "run_in_transaction", checked_transaction)
    monkeypatch.setattr(model.AssetTree, "clone", recording_clone)
    monkeypatch.setattr(runner, "load_donor", recording_load_donor)
    system, donors = oracle_corpus
    seen["summary"] = run(config, system, donors, tmp_path / "out")
    seen["donors"] = donors
    return seen


@pytest.mark.parametrize("mix", MIXES)
def test_transaction_leaves_its_input_tree_unchanged(mix, oracle_corpus, tmp_path,
                                                     monkeypatch):
    seen = _transaction_oracle(mix, oracle_corpus, tmp_path, monkeypatch)
    assert seen["changed"] == []
    assert seen["committed"] == seen["summary"].committed_total
    assert seen["rolled back"] > 0
    assert seen["owned"]["MutateAsset"] > 0
    assert len(seen["loaded"]) == len(seen["donors"])


def test_transaction_oracle_fails_when_own_ignores_the_path(oracle_corpus, tmp_path,
                                                            monkeypatch):
    real_own = model.AssetTree.own
    monkeypatch.setattr(model.AssetTree, "own",
                        lambda tree, name, path=None: real_own(tree, name))
    seen = _transaction_oracle("growing-system", oracle_corpus, tmp_path, monkeypatch)
    assert seen["changed"] != []
    assert all("line edit" in what for _, what in seen["changed"])


def test_transaction_oracle_fails_when_traces_are_added_to_a_shared_list(
        oracle_corpus, tmp_path, monkeypatch):
    def add(db, trace):
        db.traces.append(trace)
        return trace

    monkeypatch.setattr(model.TraceDb, "add", add)
    seen = _transaction_oracle("variants", oracle_corpus, tmp_path, monkeypatch)
    assert {what for _, what in seen["changed"]} == {"traces"}


def test_transaction_oracle_fails_when_sources_are_written_to_a_shared_map(
        oracle_corpus, tmp_path, monkeypatch):
    def add(db, trace):
        if db._shared:
            db.traces = list(db.traces)
            db._shared = False
        db.traces.append(trace)
        db.source[trace.target_node] = trace.source_node
        return trace

    monkeypatch.setattr(model.TraceDb, "add", add)
    seen = _transaction_oracle("variants", oracle_corpus, tmp_path, monkeypatch)
    assert {what for _, what in seen["changed"]} == {"traces"}
