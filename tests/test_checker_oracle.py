"""Oracles for the values kept on repository nodes, the in-memory
compilability gate and transactions.

A repository's render, problems and feature-state fragment are kept on its
node (``AssetNode.derived``).  On every attempt of seeded histories, rolled-back
ones included, and at every revision ``validate_history`` replays, each kept
value must equal the same value computed afresh on a copy of the node, and
the gate's problem list must equal ``check_snapshot_dir`` on a materialized
copy of the tree, and each repository's ``check_repository`` must equal
``reference_check_listing``, the check as first written over tuple paths.  A
repository an attempt does not ``own`` keeps the problem list the input
tree's check left on it.  With ``own`` disabled the oracle
must find stale values.  On the same attempts, ``run_in_transaction`` must
leave its input tree as it found it, and its scratch copy must share every
repository it did not ``own`` with the input tree and hold a separate copy,
with the same node ids, of the one it did.
"""

import copy
import shutil
from collections import Counter
from operator import attrgetter

import pytest

from evogen import history, model, runner
from evogen.history import (_repo_files, _repo_fragment, _tree_files,
                            materialize_tree, validate_history)
from evogen.operations import Committed
from evogen.minilang import (MinilangAdapter, check_files, check_repository,
                             check_snapshot_dir)
from evogen.runner import PRESET_NAMES, run

from conftest import mix_config, reference_check_repository, reference_feature_state

#: mix -> iterations; the three presets, then the variants mix
MIXES = {**{name: 120 for name in PRESET_NAMES}, "variants": 50}


def _config(mix: str):
    return mix_config(mix, MIXES[mix])


class FirstStaleValue(Exception):
    """Stops a run once the oracle has found a stale value."""


def _check_kept(tree: model.AssetTree, adapter, seen: dict, phase: str) -> None:
    """Compare every value kept on a repository node of `tree` with the value
    computed afresh on a copy of the node; count it in ``seen["checked"]``
    and list it in ``seen["stale in <phase>"]`` when they differ."""
    for repo in tree.repositories:
        twin = model._copy_node(repo, attrgetter("node_id"))
        fresh = {"files": lambda: _repo_files(twin),
                 "problems": lambda: check_files(_repo_files(twin), adapter),
                 "fragment": lambda: _repo_fragment(tree, twin)}
        for key, value in repo.derived.items():
            seen["checked"][f"{key} in {phase}"] += 1
            if value != fresh[key]():
                seen[f"stale in {phase}"].append(f"{repo.name}: {key}")


def _check_against_reference(tree: model.AssetTree, adapter, seen: dict) -> None:
    """List in ``seen["check vs reference"]`` each repository of `tree` whose
    ``check_repository`` differs from the reference check's."""
    for repo in tree.repositories:
        prefix = f"{repo.name}/"
        files = {rel[len(prefix):]: data.decode().splitlines()
                 for rel, data in _repo_files(repo).items() if data is not None}
        if check_repository(files, adapter) != reference_check_repository(files, adapter):
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
    input_problems: dict = {}  # of the attempt's input tree, by repository

    def oracle_checker(config, adapter):
        in_memory = make_checker(config, adapter)

        def checker(tree):
            problems = in_memory(tree)
            _check_kept(tree, adapter, seen, "generate")
            _check_against_reference(tree, adapter, seen)
            # tree.shared names the repositories this attempt did not own
            seen["problems not reused"].extend(
                name for name in tree.shared
                if input_problems[name] is None or
                tree.find_repository(name).derived["problems"] is not input_problems[name])
            snap = tmp_path / "snap"
            materialize_tree(tree, snap)
            on_disk = check_snapshot_dir(snap, adapter)
            shutil.rmtree(snap)
            seen["verdicts"].append(not problems)
            if problems != on_disk:
                seen["gate vs disk"].append((problems, on_disk))
            return problems
        return checker

    def transaction(tree, *args, adapter=None, **kwargs):
        input_problems.clear()
        input_problems.update((repo.name, repo.derived.get("problems"))
                              for repo in tree.repositories)
        result = real_transaction(tree, *args, adapter=adapter, **kwargs)
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
        "files in generate", "problems in generate", "fragment in generate",
        "files in validate", "problems in validate", "fragment in validate"}
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
    monkeypatch.setattr(model.AssetTree, "own", lambda tree, name: None)
    seen = _seen()
    with pytest.raises(FirstStaleValue):
        _generate(_config(mix), oracle_corpus, tmp_path / "stopped", tmp_path,
                  monkeypatch, seen, stop_at_stale=True)
    _validate(tmp_path / "out", monkeypatch, seen)
    assert seen["stale in generate"] != []
    assert seen["stale in validate"] != []


@pytest.mark.parametrize("mix", MIXES)
def test_transaction_leaves_its_input_tree_unchanged(mix, oracle_corpus, tmp_path,
                                                     monkeypatch):
    config = _config(mix)
    real_run_in_transaction = runner.run_in_transaction
    real_clone = model.AssetTree.clone
    outcomes = {"committed": 0, "rolled back": 0}
    changed: list[tuple[int, str]] = []
    copies: list[model.AssetTree] = []
    loaded: list = []
    owned_count = 0
    real_load_donor = runner.load_donor

    def recording_load_donor(*args):
        loaded.append(real_load_donor(*args))
        return loaded[-1]

    def recording_clone(tree):
        copies.append(real_clone(tree))
        return copies[-1]

    def check_sharing(tree, scratch):
        """Repositories the attempt did not own are the input tree's own
        objects; an owned one is a separate copy of the same nodes."""
        owned = {r.name for r in tree.repositories} - scratch.shared
        if len(owned) > 1:
            changed.append((tree.revision, f"owned {sorted(owned)}"))
        for repo in tree.repositories:
            mine = scratch.find_repository(repo.name)
            if repo.name not in owned:
                if mine is not repo:
                    changed.append((tree.revision, f"{repo.name} copied unowned"))
            elif mine is repo or mine.node_id != repo.node_id or (
                    {id(n) for n in mine.iter_nodes()}
                    & {id(n) for n in repo.iter_nodes()}):
                changed.append((tree.revision, f"{repo.name} owned but shared"))
        return len(owned)

    def state(tree):
        return {"render": _tree_files(tree),
                "feature state": reference_feature_state(tree),
                "traces": list(tree.traces.traces),
                "donors": [copy.deepcopy(vars(d)) for d in loaded]}

    def checked_transaction(tree, *args, **kwargs):
        nonlocal owned_count
        before = state(tree)
        copies.clear()
        result = real_run_in_transaction(tree, *args, **kwargs)
        after = state(tree)
        assert len(copies) == 1
        owned_count += check_sharing(tree, copies[0])
        changed.extend((tree.revision, part) for part in before
                       if before[part] != after[part])
        if isinstance(result, Committed):
            outcomes["committed"] += 1
        else:
            outcomes["rolled back"] += 1
        return result

    monkeypatch.setattr(runner, "run_in_transaction", checked_transaction)
    monkeypatch.setattr(model.AssetTree, "clone", recording_clone)
    monkeypatch.setattr(runner, "load_donor", recording_load_donor)
    system, donors = oracle_corpus
    summary = run(config, system, donors, tmp_path / "out")
    assert changed == []
    assert outcomes["committed"] == summary.committed_total
    assert outcomes["rolled back"] > 0
    assert owned_count > 0
    assert len(loaded) == len(donors)
