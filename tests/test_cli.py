import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import evogen
from evogen.history import LEDGER_KEYS

from conftest import (SPECIAL_ENTRIES, TYPE_TAMPERS, VARIANTS_MIX, invoke,
                      make_special_entry, tamper_ledger, write_donor,
                      write_initial_system)


def generate_history(tmp_path, out_name="out", seed=3, extra=()):
    system = write_initial_system(tmp_path / f"in_{out_name}", "calc")
    donor = write_donor(tmp_path / f"donors_{out_name}", "widget")
    config = tmp_path / f"config_{out_name}.yaml"
    config.write_text("max_iterations: 12\n")
    out = tmp_path / out_name
    result = invoke([
        "generate", "--preset", "growing-system", "--config", str(config),
        "--system", str(system), "--donor", str(donor),
        "--out", str(out), "--seed", str(seed), *extra])
    return result, out


class TestGenerate:
    def test_success_exit_zero(self, tmp_path):
        result, out = generate_history(tmp_path)
        assert result.exit_code == 0, result.output
        assert (out / "ledger.ndjson").is_file()
        assert "committed" in result.output

    def test_missing_system_exit_two(self, tmp_path):
        result = invoke([
            "generate", "--system", str(tmp_path / "nope"),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2

    def test_invalid_system_exit_two(self, tmp_path):
        bad = tmp_path / "bad"
        bad.mkdir()
        (bad / "main.mini").write_text("def broken {\n")
        result = invoke([
            "generate", "--system", str(bad), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "invalid initial system" in result.output

    def test_system_file_not_utf8_exit_two(self, tmp_path):
        system = write_initial_system(tmp_path / "in")
        (system / "notes.txt").write_bytes(b"\xff not text\n")
        result = invoke([
            "generate", "--system", str(system), "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid initial system: calc/notes.txt: not UTF-8 text" in result.output

    def test_donor_file_not_utf8_exit_two(self, tmp_path):
        system = write_initial_system(tmp_path / "in")
        donor = write_donor(tmp_path / "donors", "widget")
        (donor / "src" / "lib" / "mod1.mini").write_bytes(b"def m {\n\xff\n}\n")
        result = invoke([
            "generate", "--system", str(system), "--donor", str(donor),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "widget/src/lib/mod1.mini: not UTF-8 text" in result.output

    @pytest.mark.parametrize("name", ["a/b", "..", "."])
    def test_donor_name_no_directory_name_exit_two(self, tmp_path, name):
        """The donor's name would become a folder ``slices/<name>``: refused
        before anything is written."""
        system = write_initial_system(tmp_path / "in")
        donor = write_donor(tmp_path / "donors", "widget")
        manifest = donor / "project.manifest"
        manifest.write_text(manifest.read_text().replace("name: widget", f"name: {name}"))
        out = tmp_path / "out"
        result = invoke([
            "generate", "--preset", "growing-system", "--seed", "1",
            "--system", str(system), "--donor", str(donor), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        message = f"name of donor {donor} holds {name!r}, not a directory name"
        assert message in result.output
        assert not out.exists()

    def test_nonempty_out_exit_three(self, tmp_path):
        system = write_initial_system(tmp_path / "in")
        out = tmp_path / "out"
        out.mkdir()
        (out / "junk").write_text("x")
        result = invoke([
            "generate", "--system", str(system), "--out", str(out)])
        assert result.exit_code == 3
        assert "i/o failure" in result.output

    def test_same_seed_byte_identical_dirs(self, tmp_path):
        result_a, out_a = generate_history(tmp_path, "a", seed=9)
        result_b, out_b = generate_history(tmp_path, "b", seed=9)
        assert result_a.exit_code == result_b.exit_code == 0
        files_a = {p.relative_to(out_a).as_posix(): p.read_bytes()
                   for p in sorted(out_a.rglob("*")) if p.is_file()}
        files_b = {p.relative_to(out_b).as_posix(): p.read_bytes()
                   for p in sorted(out_b.rglob("*")) if p.is_file()}
        assert files_a == files_b

    def test_byte_identical_across_processes_and_hash_seeds(self, tmp_path):
        """Two processes with different string hash seeds write the same
        bytes, run.json and debug.log included, on a clone-heavy mix: no
        output follows the iteration order of a set or of a hash."""
        system = write_initial_system(tmp_path / "in")
        donors = [write_donor(tmp_path / "donors", f"donor{i}", tests=12, modules=4)
                  for i in range(2)]
        config = tmp_path / "config.yaml"
        config.write_text("max_iterations: 45\nseed: 2\ndistribution:\n" + "".join(
            f"  {name}: {weight}\n" for name, weight in VARIANTS_MIX.items()))
        src = str(Path(evogen.__file__).parents[1])
        files = []
        for hash_seed in ("0", "4242"):
            out = tmp_path / f"out{hash_seed}"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-m", "evogen.cli", "generate",
                            "--config", str(config), "--system", str(system),
                            *[arg for d in donors for arg in ("--donor", str(d))],
                            "--out", str(out)], env=env, check=True, capture_output=True)
            files.append({p.relative_to(out).as_posix():
                          p.read_bytes() if p.is_file() else None
                          for p in sorted(out.rglob("*"))})
        assert {"run.json", "debug.log"} <= set(files[0])
        assert files[0] == files[1]
        kinds = {json.loads(line)["kind"]
                 for line in files[0]["ledger.ndjson"].decode().splitlines()}
        assert {"CloneFeature", "TransplantFeature"} <= kinds

    @pytest.mark.parametrize("content,reason", [
        (b"max_iterations: 5\n\xff\n", "not UTF-8 text"),
        (b"max_iterations: [5\n", "expected ',' or ']'"),
        (b"- 1\n", "its top level and checker must be mappings"),
        (b"checker: bundledMinilang\n", "its top level and checker must be mappings"),
    ])
    def test_bad_config_file_exit_two_naming_it(self, tmp_path, content,
                                                reason):
        system = write_initial_system(tmp_path / "in")
        config = tmp_path / "bad.yaml"
        config.write_bytes(content)
        result = invoke([
            "generate", "--config", str(config), "--system", str(system),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '--config': {config}: " in result.output
        assert reason in result.output
        assert "history truncated" not in result.output

    @pytest.mark.parametrize("content,key", [
        ("max_iterations: abc\n", "max_iterations"),
        ("max_retries: x\n", "max_retries"),
        ("distribution: [1]\n", "distribution"),
        ("generators: []\n", "generators"),
        ("sensibility_discard_prob: hi\n", "sensibility_discard_prob"),
        ("max_iteration: 3\n", "max_iteration"),
        ("checker: {comand: echo}\n", "checker.comand"),
    ])
    def test_config_value_of_wrong_type_exit_two_writing_nothing(self, tmp_path,
                                                                 content, key):
        system = write_initial_system(tmp_path / "in")
        config = tmp_path / "bad.yaml"
        config.write_text(content)
        out = tmp_path / "out"
        result = invoke([
            "generate", "--config", str(config), "--system", str(system),
            "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: config {key}: expected " in result.output
        assert not out.exists()

    @pytest.mark.parametrize("content,message", [
        ("distribution: {mutAdd: 0.5}\n", "weights must be non-negative and sum to 1"),
        ("generators: [mutAdd, nope]\n", "unknown generators: ['nope']"),
        ("distribution: {nope: 1.0}\n", "unknown generators: ['nope']"),
        ("generators: [mutAdd]\ndistribution: {mutAdd: 0.5, mutDelete: 0.5}\n",
         "distribution weights generators missing from generators: ['mutDelete']"),
    ])
    def test_bad_distribution_exit_two_writing_nothing(self, tmp_path,
                                                       content, message):
        system = write_initial_system(tmp_path / "in")
        config = tmp_path / "bad.yaml"
        config.write_text(content)
        out = tmp_path / "out"
        result = invoke([
            "generate", "--config", str(config), "--system", str(system),
            "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: {message}" in result.output
        assert not out.exists()

    def test_missing_config_file_exit_two(self, tmp_path):
        system = write_initial_system(tmp_path / "in")
        config = tmp_path / "nope.yaml"
        result = invoke([
            "generate", "--config", str(config), "--system", str(system),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert f"Invalid value for '--config': {config}: " in result.output

    def test_config_overrides_preset(self, tmp_path):
        result, out = generate_history(tmp_path)
        payload = json.loads((out / "run.json").read_text())
        assert payload["config"]["max_iterations"] == 12
        assert payload["config"]["distribution"]["transplant"] == 0.29
        assert payload["config"]["seed"] == 3


class TestStats:
    def test_csv_on_stdout(self, tmp_path):
        _, out = generate_history(tmp_path)
        result = invoke(["stats", str(out)])
        assert result.exit_code == 0
        assert result.output.startswith("revision,distinct_features")

    def test_long_format_to_file(self, tmp_path):
        _, out = generate_history(tmp_path)
        table = tmp_path / "table.csv"
        result = invoke(["stats", str(out), "--long", "--output", str(table)])
        assert result.exit_code == 0
        assert table.read_text().startswith("revision,metric,key,value")

    @pytest.mark.parametrize("where", ["missing folder", "directory"])
    def test_output_that_cannot_be_written_exit_three(self, tmp_path, where):
        """An --output path in a folder that does not exist, or one that is a
        directory, is an I/O failure naming the path: exit 3, no traceback,
        nothing written."""
        _, out = generate_history(tmp_path)
        table = tmp_path / "nope" / "table.csv"
        if where == "directory":
            table = tmp_path / "table"
            table.mkdir()
        before = sorted(tmp_path.rglob("*"))
        result = invoke(["stats", str(out), "--output", str(table)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("i/o failure: ")
        assert result.output.count("\n") == 1 and str(table) in result.output
        assert sorted(tmp_path.rglob("*")) == before

    def test_corrupt_history_exit_four(self, tmp_path):
        _, out = generate_history(tmp_path)
        (out / "ledger.ndjson").write_text("{broken\n")
        result = invoke(["stats", str(out)])
        assert result.exit_code == 4
        assert "invalid history" in result.output


class TestValidate:
    def test_clean_history_exit_zero(self, tmp_path):
        _, out = generate_history(tmp_path)
        result = invoke(["validate", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is True

    def test_empty_revisions_is_a_layout_violation(self, tmp_path):
        _, out = generate_history(tmp_path)
        for snap in (out / "revisions").iterdir():
            shutil.rmtree(snap)
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["message"]) for v in report["violations"]] == [
            ("layout", "revision 0000 missing")]

    def test_malformed_trace_line_is_a_violation(self, tmp_path):
        _, out = generate_history(tmp_path)
        with open(out / "traces.ndjson", "a") as fh:
            fh.write("{oops\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [v["kind"] for v in report["violations"]] == ["trace-consistency"]
        assert "malformed trace line" in report["violations"][0]["message"]

    def test_malformed_run_json_is_a_ledger_violation(self, tmp_path):
        _, out = generate_history(tmp_path)
        (out / "run.json").write_text("{oops\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["where"]) for v in report["violations"]] == [
            ("ledger", "run.json")]
        assert "malformed run.json" in report["violations"][0]["message"]

    def test_malformed_feature_state_is_a_mapping_violation(self, tmp_path):
        _, out = generate_history(tmp_path)
        (out / "features" / "0001.json").write_text("{oops\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["where"]) for v in report["violations"]] == [
            ("mapping-consistency", "0001.json")]
        assert report["violations"][0]["message"] == \
            "stored feature state differs from replayed state"

    def test_torn_tail_is_a_layout_violation(self, tmp_path):
        """A run cut after writing a revision and before its ledger record
        leaves a snapshot and a feature state that no record accounts for."""
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines(keepends=True)
        ledger.write_text("".join(lines[:-1]))
        (out / "run.json").unlink()
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        torn = f"{len(lines):04d}"
        assert [v for v in report["violations"] if v["kind"] == "layout"] == [
            {"kind": "layout", "where": torn, "message": "no ledger record"},
            {"kind": "layout", "where": f"{torn}.json", "message": "no ledger record"}]

    @pytest.mark.parametrize("key", ["kind", "params", "op_id",
                                     "revision_before", "revision_after"])
    def test_ledger_line_without_a_key_is_a_ledger_violation(self, tmp_path, key):
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        del record[key]
        lines[0] = json.dumps(record)
        ledger.write_text("\n".join(lines) + "\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["message"]) for v in report["violations"]] == [
            ("ledger", f"replay diverged at record 0: ledger line lacks {key}")]

    @pytest.mark.parametrize("key", ["op", "source", "target"])
    def test_trace_line_without_a_key_is_a_trace_violation(self, tmp_path, key):
        _, out = generate_history(tmp_path)
        line = {"schema": 1, "op": "x", "source": "1:/calc", "target": "1:/calc_v1",
                "source_node": 1, "target_node": 2}
        del line[key]
        traces = out / "traces.ndjson"
        count = len(traces.read_text().splitlines()) if traces.is_file() else 0
        with open(traces, "a") as fh:
            fh.write(json.dumps(line) + "\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["message"]) for v in report["violations"]] == [
            ("trace-consistency",
             f"replay diverged at record {count}: trace line lacks {key}")]

    def test_unparsable_trace_ref_is_a_ref_violation(self, tmp_path):
        """A stored trace the replay does not yield is a trace violation."""
        _, out = generate_history(tmp_path)
        traces = out / "traces.ndjson"
        count = len(traces.read_text().splitlines()) if traces.is_file() else 0
        with open(traces, "a") as fh:
            fh.write(json.dumps({"schema": 1, "op": "op0001", "source": "x",
                                 "target": "1:/calc", "source_node": 1,
                                 "target_node": 2}) + "\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert report["violations"] == [{
            "kind": "trace-consistency", "where": "traces.ndjson",
            "message": f"stored {count + 1} traces, replay yields {count}"}]

    def test_unparsable_ledger_ref_is_a_ref_violation(self, tmp_path):
        """A ledger ref that does not parse stops the replay at its record."""
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        record["params"]["target"] = "junk"
        lines[0] = json.dumps(record)
        ledger.write_text("\n".join(lines) + "\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["where"]) for v in report["violations"]] == [
            ("replay", "ledger.ndjson")]
        assert report["violations"][0]["message"].startswith(
            "replay diverged at record 0: ValueError")

    @pytest.mark.parametrize("params", [[], "target", 7, None])
    def test_ledger_params_not_an_object_is_a_ledger_violation(self, tmp_path, params):
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[1])
        record["params"] = params
        lines[1] = json.dumps(record)
        ledger.write_text("\n".join(lines) + "\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["message"]) for v in report["violations"]] == [
            ("ledger", "replay diverged at record 1: ledger line params is not an object")]

    @pytest.mark.parametrize("sub_ops,message", [
        (5, "sub_ops is not a list of objects"),
        ([5], "sub_ops is not a list of objects"),
        ([{"params": "target"}], "sub_ops[0].params is not an object"),
        ([{"params": {}, "sub_ops": [7]}], "sub_ops[0].sub_ops is not a list of objects"),
    ])
    def test_ledger_sub_ops_of_the_wrong_shape_is_a_ledger_violation(
            self, tmp_path, sub_ops, message):
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[1])
        record["sub_ops"] = sub_ops
        lines[1] = json.dumps(record)
        ledger.write_text("\n".join(lines) + "\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["message"]) for v in report["violations"]] == [
            ("ledger", f"replay diverged at record 1: ledger line {message}")]

    def test_snapshot_file_not_utf8_is_a_compilability_violation(self, tmp_path):
        _, out = generate_history(tmp_path)
        victim = out / "revisions" / "0003" / "calc" / "main.mini"
        victim.unlink()  # snapshot files may be hard links shared by revisions
        victim.write_bytes(b"\xff\xfe junk")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert {"kind": "compilability", "where": "0003",
                "message": "calc/main.mini: not UTF-8 text"} in report["violations"]
        assert {v["where"] for v in report["violations"]} == {"0003"}

    @pytest.mark.parametrize("payload", ["[]", "3", '"run"', "null",
                                         '{"summary": []}'])
    def test_run_json_not_an_object_is_a_ledger_violation(self, tmp_path,
                                                          payload):
        _, out = generate_history(tmp_path)
        (out / "run.json").write_text(payload + "\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert [(v["kind"], v["where"], v["message"]) for v in report["violations"]] == [
            ("ledger", "run.json", "run.json or its summary is not an object")]

    def test_tampered_history_exit_one(self, tmp_path):
        _, out = generate_history(tmp_path)
        victim = next((out / "revisions").glob("00*/calc/main.mini"))
        victim.write_text(victim.read_text() + "tampered\n")
        result = invoke(["validate", str(out)])
        assert result.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert report["ok"] is False and report["violations"]

    def test_report_that_cannot_be_written_exit_three(self, tmp_path):
        """Exit 1 means violations found; a report that cannot be written is
        an I/O failure instead, exit 3 naming the report's path."""
        _, out = generate_history(tmp_path)
        report_path = out / "validation.json"
        report_path.mkdir()
        result = invoke(["validate", str(out)])
        assert result.exit_code == 3
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("i/o failure: ")
        assert str(report_path) in result.output
        assert "history valid" not in result.output
        assert list(report_path.iterdir()) == []


class TestReplay:
    def test_replay_reports_final_revision(self, tmp_path):
        _, out = generate_history(tmp_path)
        records = (out / "ledger.ndjson").read_text().splitlines()
        result = invoke(["replay", str(out)])
        assert result.exit_code == 0
        assert f"replayed to revision {len(records)}" in result.output

    def test_tampered_revision_counter_exit_one(self, tmp_path):
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        record["revision_after"] = 99
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        ledger.write_text("\n".join(lines) + "\n")
        result = invoke(["replay", str(out)])
        assert result.exit_code == 1
        assert ("replay diverged at record 0:"
                " record differs from its replay in revision_after") in result.output

    def test_empty_revisions_exit_one(self, tmp_path):
        _, out = generate_history(tmp_path)
        for snap in (out / "revisions").iterdir():
            shutil.rmtree(snap)
        result = invoke(["replay", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "revisions/0000" in result.output

    @pytest.mark.parametrize("target,error", [("junk", "ValueError"),
                                              (5, "AttributeError"),
                                              (None, "KeyError")])
    def test_malformed_params_exit_one(self, tmp_path, target, error):
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        if target is None:
            del record["params"]["target"]
        else:
            record["params"]["target"] = target
        lines[0] = json.dumps(record)
        ledger.write_text("\n".join(lines) + "\n")
        result = invoke(["replay", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"replay diverged at record 0: {error}" in result.output

    def test_divergent_ledger_exit_one(self, tmp_path):
        _, out = generate_history(tmp_path)
        (out / "ledger.ndjson").write_text("{broken\n")
        result = invoke(["replay", str(out)])
        assert result.exit_code == 1


class TestBrokenInputEndsWithoutTraceback:
    """validate records a violation and exits 1, stats exits 4 and replay
    exits 1, each naming the problem; none ends in a traceback."""

    @staticmethod
    def _commands(out):
        validate = invoke(["validate", str(out)])
        report = json.loads((out / "validation.json").read_text())
        return validate, report["violations"], [
            invoke([command, str(out)]) for command in ("stats", "replay")]

    @pytest.mark.parametrize("name, kind, what", [
        ("ledger.ndjson", "ledger", "ledger"),
        ("traces.ndjson", "trace-consistency", "trace")])
    def test_ndjson_line_not_utf8(self, tmp_path, name, kind, what):
        _, out = generate_history(tmp_path)
        path = out / name
        count = len(path.read_bytes().splitlines()) if path.is_file() else 0
        with open(path, "ab") as fh:
            fh.write(b'{"op": "\xff"}\n')
        validate, violations, (stats, replay) = self._commands(out)
        message = (f"replay diverged at record {count}: malformed {what} line:"
                   f" {name}: not UTF-8 text")
        assert validate.exit_code == 1
        assert violations == [{"kind": kind, "where": name, "message": message}]
        if name == "ledger.ndjson":
            assert (stats.exit_code, replay.exit_code) == (4, 1)
            for result in (stats, replay):
                assert isinstance(result.exception, SystemExit)
                assert message in result.output
        else:  # neither reads the traces
            assert (stats.exit_code, replay.exit_code) == (0, 0)

    @pytest.mark.parametrize("key", LEDGER_KEYS)
    def test_ledger_line_without_a_key(self, tmp_path, key):
        _, out = generate_history(tmp_path)
        ledger = out / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        del record[key]
        lines[0] = json.dumps(record)
        ledger.write_text("\n".join(lines) + "\n")
        validate, violations, (stats, replay) = self._commands(out)
        message = f"replay diverged at record 0: ledger line lacks {key}"
        assert validate.exit_code == 1
        assert violations == [{"kind": "ledger", "where": "ledger.ndjson",
                               "message": message}]
        assert (stats.exit_code, replay.exit_code) == (4, 1)
        for result in (stats, replay):
            assert isinstance(result.exception, SystemExit)
            assert message in result.output

    def test_sub_op_its_replay_does_not_yield(self, tmp_path):
        _, out = generate_history(tmp_path)
        index = tamper_ledger(out, "AddMapping asset is /calc/main.mini")
        validate, violations, (stats, replay) = self._commands(out)
        message = (f"replay diverged at record {index}:"
                   " record differs from its replay in sub_ops")
        assert validate.exit_code == 1
        assert violations == [{"kind": "replay", "where": "ledger.ndjson",
                               "message": message}]
        assert (stats.exit_code, replay.exit_code) == (4, 1)
        for result in (stats, replay):
            assert isinstance(result.exception, SystemExit)
            assert message in result.output

    @pytest.mark.parametrize("name", TYPE_TAMPERS)
    def test_text_param_of_the_wrong_type(self, clone_feature_history,
                                          tmp_path, name):
        out = tmp_path / "out"
        shutil.copytree(clone_feature_history, out)
        index = tamper_ledger(out, name)
        validate, violations, (stats, replay) = self._commands(out)
        assert validate.exit_code == 1
        assert [(v["kind"], v["message"].partition(": ")[0]) for v in violations] == [
            ("replay", f"replay diverged at record {index}")]
        assert (stats.exit_code, replay.exit_code) == (4, 1)
        for result in (stats, replay):
            assert isinstance(result.exception, SystemExit)
            assert violations[0]["message"] in result.output

    def test_revision_zero_file_not_utf8(self, tmp_path):
        _, out = generate_history(tmp_path)
        victim = out / "revisions" / "0000" / "calc" / "main.mini"
        victim.unlink()  # snapshot files may be hard links shared by revisions
        victim.write_bytes(b"\xff\xfe junk")
        validate, violations, (stats, replay) = self._commands(out)
        message = "calc/main.mini: not UTF-8 text"
        assert validate.exit_code == 1
        assert violations == [{"kind": "replay", "where": "0000", "message": message}]
        assert (stats.exit_code, replay.exit_code) == (4, 1)
        for result in (stats, replay):
            assert isinstance(result.exception, SystemExit)
            assert message in result.output

    @pytest.mark.parametrize("kind", SPECIAL_ENTRIES)
    def test_special_entry_in_a_later_revision(self, tmp_path, kind):
        _, out = generate_history(tmp_path)
        entry = out / "revisions" / "0003" / "calc" / "entry"
        make_special_entry(kind, entry, tmp_path / "in_out")
        validate, violations, (stats, replay) = self._commands(out)
        assert validate.exit_code == 1
        # the read fails at 0003 alone: revisions 4 and on are still checked
        assert violations == [{"kind": "layout", "where": "0003", "message":
                               f"neither a regular file nor a directory: {entry}"}]
        assert (stats.exit_code, replay.exit_code) == (0, 0)  # neither reads 0003

    @pytest.mark.parametrize("kind", SPECIAL_ENTRIES)
    def test_special_entry_in_revision_zero(self, tmp_path, kind):
        _, out = generate_history(tmp_path)
        entry = out / "revisions" / "0000" / "calc" / "entry"
        make_special_entry(kind, entry, tmp_path / "in_out")
        validate, violations, (stats, replay) = self._commands(out)
        message = f"neither a regular file nor a directory: {entry}"
        assert validate.exit_code == 1
        assert violations == [{"kind": "layout", "where": "0000", "message": message}]
        assert (stats.exit_code, replay.exit_code) == (4, 1)
        for result in (stats, replay):
            assert isinstance(result.exception, SystemExit)
            assert message in result.output

    def test_symlinked_revision_directory(self, tmp_path):
        _, out = generate_history(tmp_path)
        snap = out / "revisions" / "0002"
        snap.rename(tmp_path / "moved")
        snap.symlink_to(tmp_path / "moved", target_is_directory=True)
        validate, violations, _ = self._commands(out)
        assert validate.exit_code == 1
        assert violations == [{"kind": "layout", "where": "0002",
                               "message": f"snapshot is a symbolic link: {snap}"}]

    @pytest.mark.parametrize("kind", SPECIAL_ENTRIES)
    @pytest.mark.parametrize("where", ["system", "donor"])
    def test_special_entry_in_an_input_exit_two(self, tmp_path, where, kind):
        system = write_initial_system(tmp_path / "in")
        donor = write_donor(tmp_path / "donors", "widget")
        entry = (system if where == "system" else donor) / "entry"
        make_special_entry(kind, entry, tmp_path / "donors")
        result = invoke([
            "generate", "--system", str(system), "--donor", str(donor),
            "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"neither a regular file nor a directory: {entry}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate", "stats", "replay"])
    def test_a_file_for_the_history_directory_exit_two(self, tmp_path, command):
        path = tmp_path / "afile"
        path.write_text("not a history\n")
        result = invoke([command, str(path)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is a file" in result.output
        assert path.read_text() == "not a history\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]
