import json
import random
from collections import Counter
from pathlib import Path

import pytest

from evogen.errors import (BadDistribution, EvogenError, InvalidInitialSystem,
                           SnapshotIoError)
from evogen.generators import GENERATOR_IDS
from evogen.minilang import MinilangAdapter
from evogen.runner import (PRESET_NAMES, RunConfig, make_checker,
                           parse_termination, preset, run, select_generator)

from conftest import write_donor, write_initial_system


class TestConfig:
    def test_dict_round_trip(self):
        config = preset("growing-system")
        config.seed = 17
        config.termination = "totalLoc >= 500"
        again = RunConfig.from_dict(config.to_dict())
        assert again == config

    def test_uniform_default_distribution(self):
        dist = RunConfig().resolved_distribution()
        assert set(dist) == set(GENERATOR_IDS)
        assert all(abs(v - 1 / 7) < 1e-12 for v in dist.values())

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_sum_to_one(self, name):
        dist = preset(name).resolved_distribution()
        assert set(dist) == set(GENERATOR_IDS)
        assert abs(sum(dist.values()) - 1.0) < 1e-9
        assert dist["cloneVariant"] == dist["cloneFeature"] == 0.01

    def test_growing_system_weights(self):
        dist = preset("growing-system").resolved_distribution()
        assert dist["transplant"] == 0.29
        assert dist["removeFeature"] == 0.09
        assert dist["mutAdd"] == dist["mutReplace"] == dist["mutDelete"] == 0.2

    def test_unknown_preset_raises(self):
        with pytest.raises(EvogenError):
            preset("nope")


class TestSelectGenerator:
    def test_bad_weights_raise(self):
        with pytest.raises(BadDistribution):
            select_generator({}, random.Random(0))
        with pytest.raises(BadDistribution):
            select_generator({"a": 0.5, "b": 0.2}, random.Random(0))
        with pytest.raises(BadDistribution):
            select_generator({"a": -0.5, "b": 1.5}, random.Random(0))

    def test_frequencies_track_weights(self):
        dist = {"a": 0.7, "b": 0.2, "c": 0.1}
        counts = Counter(select_generator(dist, random.Random(i))
                         for i in range(10000))
        for gen_id, weight in dist.items():
            assert abs(counts[gen_id] / 10000 - weight) < 0.03

    def test_deterministic_under_same_stream(self):
        dist = preset("growing-system").resolved_distribution()
        a = [select_generator(dist, random.Random(f"0/{i}")) for i in range(50)]
        b = [select_generator(dist, random.Random(f"0/{i}")) for i in range(50)]
        assert a == b


class TestTermination:
    def test_parse_and_evaluate(self, loaded_tree):
        pred = parse_termination("repositoryCount >= 1")
        assert pred(loaded_tree)
        pred = parse_termination("totalLoc > 100000")
        assert not pred(loaded_tree)
        assert parse_termination(None) is None

    def test_bad_specs_raise(self):
        for spec in ("bogus >= 3", "totalLoc ~ 3", "totalLoc >="):
            with pytest.raises(EvogenError):
                parse_termination(spec)


class TestChecker:
    def test_bundled_checker_flags_problems(self, tmp_path):
        repo = write_initial_system(tmp_path / "snap")
        config = RunConfig()
        assert make_checker(config, MinilangAdapter())(tmp_path / "snap") == []
        (repo / "main.mini").write_text("import ghost\n")
        assert make_checker(config, MinilangAdapter())(tmp_path / "snap") != []

    def test_external_checker_exit_status(self, tmp_path):
        ok = RunConfig(checker_kind="externalCommand", checker_cmd="true")
        bad = RunConfig(checker_kind="externalCommand", checker_cmd="false")
        assert make_checker(ok, None)(tmp_path) == []
        assert make_checker(bad, None)(tmp_path) != []

    def test_external_checker_needs_cmd(self):
        with pytest.raises(EvogenError):
            make_checker(RunConfig(checker_kind="externalCommand"), None)


def small_run_config(**kwargs):
    base = dict(max_iterations=15, seed=1)
    base.update(kwargs)
    return RunConfig(**base)


class TestRun:
    def _inputs(self, tmp_path):
        system = write_initial_system(tmp_path / "in")
        donor = write_donor(tmp_path / "donors", "widget")
        return system, [donor]

    def test_layout_and_density(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        out = tmp_path / "out"
        summary = run(small_run_config(), system, donors, out)
        assert summary.iterations_run == 15
        revisions = sorted(p.name for p in (out / "revisions").iterdir())
        assert revisions == [f"{i:04d}" for i in range(summary.final_revision + 1)]
        assert summary.final_revision == summary.committed_total
        ledger_lines = (out / "ledger.ndjson").read_text().splitlines()
        assert len(ledger_lines) == summary.committed_total
        assert (out / "run.json").is_file()
        assert (out / "features" / "0000.json").is_file()
        assert (out / "debug.log").is_file()

    def test_every_snapshot_compiles(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        out = tmp_path / "out"
        config = small_run_config()
        run(config, system, donors, out)
        for rev_dir in (out / "revisions").iterdir():
            assert make_checker(config, MinilangAdapter())(rev_dir) == []

    def test_same_seed_byte_identical(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        config = small_run_config(seed=7)
        run(config, system, donors, tmp_path / "a")
        run(config, system, donors, tmp_path / "b")
        files_a = {p.relative_to(tmp_path / "a"): p.read_bytes()
                   for p in sorted((tmp_path / "a").rglob("*")) if p.is_file()}
        files_b = {p.relative_to(tmp_path / "b"): p.read_bytes()
                   for p in sorted((tmp_path / "b").rglob("*")) if p.is_file()}
        assert files_a == files_b

    def test_different_seed_diverges(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        run(small_run_config(seed=1), system, donors, tmp_path / "a")
        run(small_run_config(seed=2), system, donors, tmp_path / "b")
        a = (tmp_path / "a" / "ledger.ndjson").read_text()
        b = (tmp_path / "b" / "ledger.ndjson").read_text()
        assert a != b

    def test_zero_iterations_only_initial_snapshot(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        out = tmp_path / "out"
        summary = run(small_run_config(max_iterations=0), system, donors, out)
        assert summary.committed_total == 0
        assert [p.name for p in (out / "revisions").iterdir()] == ["0000"]
        assert (out / "ledger.ndjson").exists() is False or \
            (out / "ledger.ndjson").read_text() == ""

    def test_termination_stops_early(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        out = tmp_path / "out"
        config = small_run_config(max_iterations=100,
                                  termination="repositoryCount >= 1")
        summary = run(config, system, donors, out)
        assert summary.terminated_early
        assert summary.committed_total == 0

    def test_invalid_initial_system(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "main.mini").write_text("def broken {\n")
        with pytest.raises(InvalidInitialSystem):
            run(small_run_config(), bad, [], tmp_path / "out")

    def test_nonempty_out_dir_refused(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk").write_text("x")
        with pytest.raises(SnapshotIoError):
            run(small_run_config(), system, donors, out)

    def test_duplicate_donor_id_refused(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        other = write_donor(tmp_path / "donors2", "widget")
        with pytest.raises(InvalidInitialSystem):
            run(small_run_config(), system, donors + [other], tmp_path / "out")

    def test_run_json_matches_summary(self, tmp_path):
        system, donors = self._inputs(tmp_path)
        out = tmp_path / "out"
        summary = run(small_run_config(), system, donors, out)
        payload = json.loads((out / "run.json").read_text())
        assert payload["summary"] == summary.to_dict()
        assert payload["config"] == small_run_config().to_dict()
