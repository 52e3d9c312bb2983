"""Oracles for the in-memory compilability gate and for transactions.

On every attempt of seeded histories, rolled-back ones included, the problem
list the bundled checker computes from the asset tree must equal
``check_snapshot_dir`` on a materialized copy of the same tree, and, since the
checker reuses the problems of repositories whose listing did not change, it
must also equal ``check_tree`` without a memo.  On the same attempts,
``run_in_transaction`` must leave its input tree as it found it, and its
scratch copy must share every repository it did not ``own`` with the input
tree and hold a separate copy, with the same node ids, of the one it did.
"""

import copy
import shutil

import pytest

from evogen import minilang, model, runner
from evogen.history import _tree_files, feature_state, materialize_tree
from evogen.operations import Committed
from evogen.minilang import check_snapshot_dir, check_tree
from evogen.runner import PRESET_NAMES, RunConfig, preset, run

from conftest import write_donor, write_initial_system

#: the clone-heavy `variants` mix of perfbench/run.py
VARIANTS_MIX = {"removeFeature": 0.05, "mutAdd": 0.15, "mutReplace": 0.15,
                "mutDelete": 0.15, "transplant": 0.30, "cloneVariant": 0.08,
                "cloneFeature": 0.12}

#: mix -> iterations; the three presets, then the variants mix
MIXES = {**{name: 120 for name in PRESET_NAMES}, "variants": 50}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    system = write_initial_system(base / "in")
    donors = [write_donor(base / "donors", f"donor{i}", tests=12, modules=4)
              for i in range(2)]
    return system, donors


@pytest.mark.parametrize("mix", MIXES)
def test_in_memory_check_equals_disk_check_on_every_attempt(mix, corpus, tmp_path,
                                                             monkeypatch):
    config = RunConfig(distribution=VARIANTS_MIX) if mix == "variants" else preset(mix)
    config.max_iterations = MIXES[mix]
    config.seed = 1
    verdicts: list[bool] = []
    mismatches: list[tuple[list[str], ...]] = []
    make_checker = runner.make_checker
    real_check_listing = minilang.check_listing
    counts = {"listings checked": 0, "repositories": 0}

    def counting_check_listing(files, adapter):
        counts["listings checked"] += 1
        return real_check_listing(files, adapter)

    def oracle_checker(config, adapter):
        in_memory = make_checker(config, adapter)

        def checker(tree):
            monkeypatch.setattr(minilang, "check_listing", counting_check_listing)
            problems = in_memory(tree)
            monkeypatch.setattr(minilang, "check_listing", real_check_listing)
            counts["repositories"] += len(tree.repositories)
            snap = tmp_path / "snap"
            materialize_tree(tree, snap)
            on_disk = check_snapshot_dir(snap, adapter)
            shutil.rmtree(snap)
            fresh = check_tree(tree, adapter)
            verdicts.append(not problems)
            if not problems == on_disk == fresh:
                mismatches.append((problems, on_disk, fresh))
            return problems
        return checker

    monkeypatch.setattr(runner, "make_checker", oracle_checker)
    system, donors = corpus
    summary = run(config, system, donors, tmp_path / "out")
    assert mismatches == []
    # the memo spared the repositories whose listing had not changed
    assert 0 < counts["listings checked"] < counts["repositories"]
    assert verdicts.count(True) == summary.committed_total + 1  # + revision 0
    assert verdicts.count(False) > 0


@pytest.mark.parametrize("mix", MIXES)
def test_transaction_leaves_its_input_tree_unchanged(mix, corpus, tmp_path,
                                                     monkeypatch):
    config = RunConfig(distribution=VARIANTS_MIX) if mix == "variants" else preset(mix)
    config.max_iterations = MIXES[mix]
    config.seed = 1
    real_run_in_transaction = runner.run_in_transaction
    real_clone = model.AssetTree.clone
    outcomes = {"committed": 0, "rolled back": 0}
    changed: list[tuple[int, str]] = []
    copies: list[model.AssetTree] = []
    owned_count = 0

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
                "feature state": feature_state(tree),
                "traces": list(tree.traces.traces),
                "donors": {k: copy.deepcopy(vars(d)) for k, d in tree.donors.items()}}

    def same_objects(a, b):
        return a.keys() == b.keys() and all(a[k] is b[k] for k in a)

    def checked_transaction(tree, *args, **kwargs):
        nonlocal owned_count
        before = state(tree)
        donors = dict(tree.donors)
        copies.clear()
        result = real_run_in_transaction(tree, *args, **kwargs)
        after = state(tree)
        assert len(copies) == 1
        owned_count += check_sharing(tree, copies[0])
        changed.extend((tree.revision, part) for part in before
                       if before[part] != after[part])
        if not same_objects(tree.donors, donors):
            changed.append((tree.revision, "donor objects"))
        if isinstance(result, Committed):
            outcomes["committed"] += 1
            if not same_objects(result.tree.donors, donors):
                changed.append((tree.revision, "committed donors are copies"))
        else:
            outcomes["rolled back"] += 1
        return result

    monkeypatch.setattr(runner, "run_in_transaction", checked_transaction)
    monkeypatch.setattr(model.AssetTree, "clone", recording_clone)
    system, donors = corpus
    summary = run(config, system, donors, tmp_path / "out")
    assert changed == []
    assert outcomes["committed"] == summary.committed_total
    assert outcomes["rolled back"] > 0
    assert owned_count > 0
