import json
import random
import tempfile
from pathlib import Path

import pytest

from evogen.errors import ReplayDivergence, SnapshotIoError
from evogen.history import (feature_state, materialize_tree,
                            parse_initial_system, parse_snapshot, read_ledger,
                            replay_history, validate_history, write_snapshot)
from evogen.minilang import MinilangAdapter
from evogen.model import AssetTree, structurally_equal
from evogen.refs import AssetRef
from evogen.runner import RunConfig, run

from conftest import (random_fs_tree, write_donor, write_initial_system)


@pytest.fixture
def history(tmp_path):
    system = write_initial_system(tmp_path / "in")
    donor = write_donor(tmp_path / "donors", "widget")
    out = tmp_path / "out"
    run(RunConfig(max_iterations=20, seed=3), system, [donor], out)
    return out


class TestSnapshots:
    def test_initial_system_single_repo(self, initial_system):
        tree = parse_initial_system(initial_system)
        assert [r.name for r in tree.repositories] == ["calc"]
        names = {n.name for n in tree.repositories[0].children}
        assert names == {"project.manifest", "main.mini", "util.mini"}

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(SnapshotIoError):
            parse_initial_system(tmp_path / "nope")

    @pytest.mark.parametrize("seed", range(10))
    def test_materialize_parse_round_trip(self, tmp_path, seed):
        tree = random_fs_tree(random.Random(seed))
        dest = tmp_path / f"snap{seed}"
        materialize_tree(tree, dest)
        again = parse_snapshot(dest)
        # parse orders children by name; compare per-file bytes instead
        dest2 = tmp_path / f"snap{seed}b"
        materialize_tree(again, dest2)
        files1 = {p.relative_to(dest).as_posix(): p.read_bytes()
                  for p in sorted(dest.rglob("*")) if p.is_file()}
        files2 = {p.relative_to(dest2).as_posix(): p.read_bytes()
                  for p in sorted(dest2.rglob("*")) if p.is_file()}
        assert files1 == files2

    def test_write_snapshot_idempotent(self, tmp_path):
        tree = random_fs_tree(random.Random(0))
        write_snapshot(tree, 0, tmp_path)
        stale = tmp_path / "revisions" / "0000" / "stale.txt"
        stale.write_text("junk")
        write_snapshot(tree, 0, tmp_path)
        assert not stale.exists()

    def test_lf_and_trailing_newline(self, tmp_path):
        tree = random_fs_tree(random.Random(1))
        materialize_tree(tree, tmp_path / "s")
        for p in (tmp_path / "s").rglob("*"):
            if p.is_file():
                data = p.read_bytes()
                assert b"\r" not in data
                assert data == b"" or data.endswith(b"\n")


class TestLedgerAndReplay:
    def test_one_line_per_committed_record(self, history):
        records = read_ledger(history)
        payload = json.loads((history / "run.json").read_text())
        assert len(records) == payload["summary"]["committed_total"]
        assert all(r["schema"] == 1 for r in records)
        assert [r["revision_after"] for r in records] == \
            list(range(1, len(records) + 1))

    def test_replay_reaches_every_stored_snapshot(self, history, adapter, tmp_path):
        for revision, tree in replay_history(history, adapter):
            out = tmp_path / f"replayed{revision:04d}"
            materialize_tree(tree, out)
            snap = history / "revisions" / f"{revision:04d}"
            files_a = {p.relative_to(out).as_posix(): p.read_bytes()
                       for p in sorted(out.rglob("*")) if p.is_file()}
            files_b = {p.relative_to(snap).as_posix(): p.read_bytes()
                       for p in sorted(snap.rglob("*")) if p.is_file()}
            assert files_a == files_b, f"divergence at revision {revision}"

    def test_replay_final_tree(self, history, adapter):
        for revision, final in replay_history(history, adapter):
            pass
        records = read_ledger(history)
        assert revision == final.revision == len(records)

    def test_replayed_feature_state_matches_stored(self, history, adapter):
        for revision, tree in replay_history(history, adapter):
            stored = json.loads(
                (history / "features" / f"{revision:04d}.json").read_text())
            assert stored == feature_state(tree)

    def test_malformed_ledger_line_raises(self, history, adapter):
        ledger = history / "ledger.ndjson"
        ledger.write_text(ledger.read_text() + "{not json\n")
        with pytest.raises(ReplayDivergence):
            list(replay_history(history, adapter))

    def test_truncated_ledger_replays_prefix(self, history, adapter):
        ledger = history / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        assert len(lines) >= 2
        ledger.write_text("\n".join(lines[:-1]) + "\n")
        revisions = [r for r, _ in replay_history(history, adapter)]
        assert revisions == list(range(len(lines)))

    def test_tampered_record_diverges(self, history, adapter):
        ledger = history / "ledger.ndjson"
        lines = ledger.read_text().splitlines()
        record = json.loads(lines[0])
        record["revision_after"] = 99
        lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
        ledger.write_text("\n".join(lines) + "\n")
        with pytest.raises(ReplayDivergence):
            list(replay_history(history, adapter))


class TestValidate:
    def test_clean_history_validates(self, history, adapter):
        report = validate_history(history, adapter)
        assert report.ok, report.violations

    def test_tampered_snapshot_detected(self, history, adapter):
        victim = next((history / "revisions").glob("00*/calc/main.mini"))
        victim.write_text(victim.read_text() + "tampered\n")
        report = validate_history(history, adapter)
        assert any(v["kind"] == "replay-fidelity" for v in report.violations)

    def test_deleted_trace_line_detected(self, history, adapter):
        traces = history / "traces.ndjson"
        if not traces.is_file() or not traces.read_text().strip():
            pytest.skip("run produced no traces")
        lines = traces.read_text().splitlines()
        traces.write_text("\n".join(lines[:-1]) + ("\n" if lines[:-1] else ""))
        report = validate_history(history, adapter)
        assert any(v["kind"] == "trace-consistency" for v in report.violations)

    def test_dangling_trace_ref_detected(self, history, adapter):
        traces = history / "traces.ndjson"
        lines = traces.read_text().splitlines()
        assert lines, "run produced no traces"
        line = json.loads(lines[0])
        ref = AssetRef.from_text(line["source"])
        line["source"] = AssetRef(ref.revision, "/no/such/path").to_text()
        lines[0] = json.dumps(line, sort_keys=True, separators=(",", ":"))
        traces.write_text("\n".join(lines) + "\n")
        report = validate_history(history, adapter)
        kinds = {v["kind"] for v in report.violations}
        assert {"trace-consistency", "ref-resolution"} <= kinds
        assert {"kind": "ref-resolution", "where": line["op"],
                "message": f"trace source {line['source']} does not resolve"} \
            in report.violations

    def test_validates_without_tree_copies_or_temp_dirs(self, history, adapter,
                                                         monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("validate must not copy trees or use temp dirs")
        monkeypatch.setattr(AssetTree, "clone", refuse)
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
        report = validate_history(history, adapter)
        assert report.ok, report.violations

    def test_tampered_feature_state_detected(self, history, adapter):
        state = history / "features" / "0000.json"
        data = json.loads(state.read_text())
        data["repos"]["calc"]["model"]["name"] = "bogus"
        state.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n")
        report = validate_history(history, adapter)
        assert any(v["kind"] == "mapping-consistency" for v in report.violations)

    def test_missing_revision_dir_detected(self, history, adapter):
        import shutil
        dirs = sorted((history / "revisions").iterdir())
        shutil.rmtree(dirs[len(dirs) // 2])
        report = validate_history(history, adapter)
        assert any(v["kind"] == "layout" for v in report.violations)

    def test_run_summary_mismatch_detected(self, history, adapter):
        payload = json.loads((history / "run.json").read_text())
        payload["summary"]["committed_total"] += 1
        (history / "run.json").write_text(json.dumps(payload, sort_keys=True))
        report = validate_history(history, adapter)
        assert any(v["kind"] == "ledger" for v in report.violations)

    def test_uncompilable_snapshot_detected(self, history, adapter):
        victim = next((history / "revisions").glob("00*/calc/util.mini"))
        victim.write_text("import ghost.module\n")
        report = validate_history(history, adapter)
        kinds = {v["kind"] for v in report.violations}
        assert "compilability" in kinds
