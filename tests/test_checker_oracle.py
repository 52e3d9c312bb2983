"""Oracle for the in-memory compilability gate.

On every attempt of seeded histories, rolled-back ones included, the problem
list the bundled checker computes from the asset tree must equal
``check_snapshot_dir`` on a materialized copy of the same tree.
"""

import shutil

import pytest

from evogen import runner
from evogen.history import materialize_tree
from evogen.minilang import check_snapshot_dir
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
    mismatches: list[tuple[list[str], list[str]]] = []
    make_checker = runner.make_checker

    def oracle_checker(config, adapter):
        in_memory = make_checker(config, adapter)

        def checker(tree):
            problems = in_memory(tree)
            snap = tmp_path / "snap"
            materialize_tree(tree, snap)
            on_disk = check_snapshot_dir(snap, adapter)
            shutil.rmtree(snap)
            verdicts.append(not problems)
            if problems != on_disk:
                mismatches.append((problems, on_disk))
            return problems
        return checker

    monkeypatch.setattr(runner, "make_checker", oracle_checker)
    system, donors = corpus
    summary = run(config, system, donors, tmp_path / "out")
    assert mismatches == []
    assert verdicts.count(True) == summary.committed_total + 1  # + revision 0
    assert verdicts.count(False) > 0
