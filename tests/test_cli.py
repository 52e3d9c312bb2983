import json

import pytest
from click.testing import CliRunner

from evogen.cli import main

from conftest import write_donor, write_initial_system


@pytest.fixture
def runner():
    return CliRunner()


def generate_history(runner, tmp_path, out_name="out", seed=3, extra=()):
    system = write_initial_system(tmp_path / f"in_{out_name}", "calc")
    donor = write_donor(tmp_path / f"donors_{out_name}", "widget")
    config = tmp_path / f"config_{out_name}.yaml"
    config.write_text("max_iterations: 12\n")
    out = tmp_path / out_name
    result = runner.invoke(main, [
        "generate", "--preset", "growing-system", "--config", str(config),
        "--system", str(system), "--donor", str(donor),
        "--out", str(out), "--seed", str(seed), *extra])
    return result, out


class TestGenerate:
    def test_success_exit_zero(self, runner, tmp_path):
        result, out = generate_history(runner, tmp_path)
        assert result.exit_code == 0, result.output
        assert (out / "ledger.ndjson").is_file()
        assert "committed" in result.output

    def test_missing_system_exit_two(self, runner, tmp_path):
        result = runner.invoke(main, [
            "generate", "--system", str(tmp_path / "nope"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_invalid_system_exit_two(self, runner, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "main.mini").write_text("def broken {\n")
        result = runner.invoke(main, [
            "generate", "--system", str(bad), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "invalid initial system" in result.output

    def test_nonempty_out_exit_three(self, runner, tmp_path):
        system = write_initial_system(tmp_path / "in")
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk").write_text("x")
        result = runner.invoke(main, [
            "generate", "--system", str(system), "--out", str(out)])
        assert result.exit_code == 3
        assert "i/o failure" in result.output

    def test_same_seed_byte_identical_dirs(self, runner, tmp_path):
        result_a, out_a = generate_history(runner, tmp_path, "a", seed=9)
        result_b, out_b = generate_history(runner, tmp_path, "b", seed=9)
        assert result_a.exit_code == result_b.exit_code == 0
        files_a = {p.relative_to(out_a).as_posix(): p.read_bytes()
                   for p in sorted(out_a.rglob("*")) if p.is_file()}
        files_b = {p.relative_to(out_b).as_posix(): p.read_bytes()
                   for p in sorted(out_b.rglob("*")) if p.is_file()}
        assert files_a == files_b

    def test_config_overrides_preset(self, runner, tmp_path):
        result, out = generate_history(runner, tmp_path)
        payload = json.loads((out / "run.json").read_text())
        assert payload["config"]["max_iterations"] == 12
        assert payload["config"]["distribution"]["transplant"] == 0.29
        assert payload["config"]["seed"] == 3


class TestStats:
    def test_csv_on_stdout(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        result = runner.invoke(main, ["stats", str(out)])
        assert result.exit_code == 0
        assert result.output.startswith("revision,distinct_features")

    def test_long_format_to_file(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        table = tmp_path / "table.csv"
        result = runner.invoke(main, ["stats", str(out), "--long",
                                      "--output", str(table)])
        assert result.exit_code == 0
        assert table.read_text().startswith("revision,metric,key,value")

    def test_corrupt_history_exit_four(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        (out / "ledger.ndjson").write_text("{broken\n")
        result = runner.invoke(main, ["stats", str(out)])
        assert result.exit_code == 4
        assert "invalid history" in result.output


class TestValidate:
    def test_clean_history_exit_zero(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        result = runner.invoke(main, ["validate", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is True

    def test_tampered_history_exit_one(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        victim = next((out / "revisions").glob("00*/calc/main.mini"))
        victim.write_text(victim.read_text() + "tampered\n")
        result = runner.invoke(main, ["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is False and report["violations"]


class TestReplay:
    def test_replay_reports_final_revision(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        records = (out / "ledger.ndjson").read_text().splitlines()
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 0
        assert f"replayed to revision {len(records)}" in result.output

    def test_tampered_revision_counter_exit_one(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        record["revision_after"] = 99
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        ledger.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 1
        assert "revision counter mismatch" in result.output

    def test_divergent_ledger_exit_one(self, runner, tmp_path):
        _, out = generate_history(runner, tmp_path)
        (out / "ledger.ndjson").write_text("{broken\n")
        result = runner.invoke(main, ["replay", str(out)])
        assert result.exit_code == 1
