import json
import os
import random
import shutil
import tempfile
from pathlib import Path
from typing import Optional

import pytest

from evogen import history as history_module
from evogen import minilang, runner
from evogen.errors import ReplayDivergence, SnapshotIoError
from evogen.history import (_read_snapshot, _tree_files,
                            materialize_tree, parse_initial_system,
                            parse_snapshot, read_ledger, replay_history,
                            validate_history, write_feature_state,
                            write_snapshot)
from evogen.minilang import check_snapshot_dir, check_tree
from evogen.model import FOLDER, AssetTree, Feature
from evogen.refs import AssetRef
from evogen.runner import PRESET_NAMES, RunConfig, preset, run

from conftest import (CLONE_FEATURE_MIX, TAMPERS, build_repo, random_fs_tree,
                      reference_feature_state, tamper_ledger, write_donor,
                      write_initial_system)


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

    def test_initial_system_keeps_empty_folders(self, initial_system):
        (initial_system / "assets" / "empty").mkdir(parents=True)
        repo = parse_initial_system(initial_system).repositories[0]
        assets = repo.child_named("assets")
        assert assets.kind == FOLDER
        assert [(n.kind, n.name, n.children) for n in assets.children] == [
            (FOLDER, "empty", [])]

    @pytest.mark.parametrize("name", [".", "sub/.."])
    def test_relative_seed_path_names_the_repository(self, initial_system,
                                                     monkeypatch, name):
        (initial_system / "sub").mkdir()
        monkeypatch.chdir(initial_system)
        tree = parse_initial_system(Path(name))
        assert [r.name for r in tree.repositories] == [initial_system.name]
        assert all(rel.startswith(f"{initial_system.name}/")
                   for rel in list(_tree_files(tree))[1:])

    def test_empty_seed_directory_is_one_empty_repository(self, tmp_path):
        (tmp_path / "seed").mkdir()
        tree = parse_initial_system(tmp_path / "seed")
        assert [(r.name, r.children) for r in tree.repositories] == [("seed", [])]
        assert _tree_files(tree) == {"seed": None}

    @pytest.mark.parametrize("seed", range(10))
    def test_materialize_parse_round_trip(self, tmp_path, seed):
        tree = random_fs_tree(random.Random(seed))
        dest = tmp_path / f"snap{seed}"
        materialize_tree(tree, dest)
        again = parse_snapshot(dest)
        # parse orders children by name; compare the snapshot maps instead
        dest2 = tmp_path / f"snap{seed}b"
        materialize_tree(again, dest2)
        assert _entries(dest) == _entries(dest2) == _tree_files(tree) == \
            _tree_files(again)

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
            stored = (history / "features" / f"{revision:04d}.json").read_bytes()
            assert stored == reference_feature_state(tree)

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
        """A stored trace must equal the replayed one, refs included."""
        traces = history / "traces.ndjson"
        lines = traces.read_text().splitlines()
        assert lines, "run produced no traces"
        line = json.loads(lines[0])
        ref = AssetRef.from_text(line["source"])
        line["source"] = AssetRef(ref.revision, "/no/such/path").to_text()
        lines[0] = json.dumps(line, sort_keys=True, separators=(",", ":"))
        traces.write_text("\n".join(lines) + "\n")
        report = validate_history(history, adapter)
        assert report.violations == [{
            "kind": "trace-consistency", "where": "traces.ndjson",
            "message": "trace line 0 differs from its replay in source"}]

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

    def test_validate_reads_the_ledger_once(self, history, adapter, monkeypatch):
        real = history_module._read_ndjson
        reads = []

        def counting(path, what):
            reads.append(what)
            return real(path, what)
        monkeypatch.setattr(history_module, "_read_ndjson", counting)
        assert validate_history(history, adapter).ok
        assert reads.count("ledger") == 1

    def test_validate_reads_each_snapshot_once(self, history, adapter,
                                               monkeypatch):
        real = history_module._read_snapshot
        reads = []

        def counting(root, prefix="", inodes=None):
            reads.append(Path(root).name)
            return real(root, prefix, inodes)
        monkeypatch.setattr(history_module, "_read_snapshot", counting)
        monkeypatch.setattr(minilang, "_read_snapshot", counting)
        assert validate_history(history, adapter).ok
        assert reads == [snap.name for snap in _snapshots(history)]

    @pytest.mark.parametrize("change", ["remove", "add"])
    def test_folder_change_is_a_fidelity_violation_at_that_revision(
            self, tmp_path, adapter, change):
        system = write_initial_system(tmp_path / "in")
        (system / "assets").mkdir()
        out = tmp_path / "out"
        run(RunConfig(max_iterations=20, seed=3), system,
            [write_donor(tmp_path / "donors", "widget")], out)
        assert validate_history(out, adapter).ok
        snap = _snapshots(out)[3]
        if change == "remove":
            (snap / "calc" / "assets").rmdir()
        else:
            (snap / "calc" / "assets" / "extra").mkdir()
        assert validate_history(out, adapter).violations == [
            {"kind": "replay-fidelity", "where": snap.name,
             "message": "replayed state differs from stored snapshot"}]

    def test_uncompilable_snapshot_detected(self, history, adapter):
        victim = next((history / "revisions").glob("00*/calc/util.mini"))
        victim.write_text("import ghost.module\n")
        report = validate_history(history, adapter)
        kinds = {v["kind"] for v in report.violations}
        assert "compilability" in kinds


@pytest.fixture(scope="module")
def clone_feature_history(oracle_corpus, tmp_path_factory):
    """A history with AddMapping, CloneAsset, AddAsset and RemoveFeature
    sub-operations and CloneFeature records for the ledger tampers."""
    system, donors = oracle_corpus
    out = tmp_path_factory.mktemp("clone_feature") / "out"
    run(RunConfig(distribution=CLONE_FEATURE_MIX, max_iterations=40, seed=3),
        system, donors, out)
    return out


class TestLedgerTampers:
    """Every ledger record must equal the record its replay yields; each
    tamper leaves every ref resolvable, so nothing else sees it."""

    #: what replay says of each tamper of this history
    MESSAGES = {
        "AddMapping asset is /calc/main.mini": "record differs from its replay in sub_ops",
        "CloneAsset index set to 0": "record differs from its replay in sub_ops",
        "AddAsset name changed": "record differs from its replay in sub_ops",
        "RemoveFeature sub-op dropped": "record differs from its replay in sub_ops",
        "CloneFeature target_parent names the source repository":
            "EvogenError: /calc_v2!calc is not a feature of calc_v2_v1",
    }

    def test_untampered_history_validates(self, clone_feature_history, adapter):
        assert validate_history(clone_feature_history, adapter).ok

    @pytest.mark.parametrize("name", TAMPERS)
    def test_tampered_record_is_a_replay_violation(self, clone_feature_history,
                                                   adapter, tmp_path, name):
        out = tmp_path / "out"
        shutil.copytree(clone_feature_history, out)
        index = tamper_ledger(out, name)
        assert validate_history(out, adapter).violations == [
            {"kind": "replay", "where": "ledger.ndjson",
             "message": f"replay diverged at record {index}: {self.MESSAGES[name]}"}]


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _entries(root: Path) -> dict[str, Optional[bytes]]:
    """The snapshot map of a directory: every file's bytes, None for every
    folder."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def _snapshots(out: Path) -> list[Path]:
    return sorted((out / "revisions").iterdir())


#: clone-heavy, so histories hold several repositories
CLONE_MIX = {"removeFeature": 0.05, "mutAdd": 0.15, "mutReplace": 0.15,
             "mutDelete": 0.15, "transplant": 0.30, "cloneVariant": 0.08,
             "cloneFeature": 0.12}


class TestIncrementalSnapshots:
    """Unchanged snapshot files are hard links to revision N-1; the bytes of
    every revision stay what a full write of the replayed tree gives."""

    @pytest.mark.parametrize("mix", ["growing-system", "clones"])
    def test_snapshot_writes_reuse_the_gates_render(self, tmp_path, monkeypatch,
                                                    mix):
        # the bundled gate renders every repository an attempt owned or
        # added, and keeps the render on its node for the snapshot writer
        real_bytes = history_module._file_bytes
        real_write = runner.write_snapshot
        rendered = {"by the gate": 0, "by write_snapshot": 0}
        writing = []

        def counting_bytes(node):
            rendered["by write_snapshot" if writing else "by the gate"] += 1
            return real_bytes(node)

        def flagged_write(*args, **kwargs):
            writing.append(True)
            try:
                return real_write(*args, **kwargs)
            finally:
                writing.pop()
        monkeypatch.setattr(history_module, "_file_bytes", counting_bytes)
        monkeypatch.setattr(runner, "write_snapshot", flagged_write)
        config = RunConfig(distribution=CLONE_MIX) if mix == "clones" else preset(mix)
        config.max_iterations, config.seed = 40, 1
        summary = run(config, write_initial_system(tmp_path / "in"),
                      [write_donor(tmp_path / "donors", "donor0", tests=8)],
                      tmp_path / "out")
        assert summary.committed_total > 0
        assert rendered["by the gate"] > 0
        assert rendered["by write_snapshot"] == 0

    @pytest.mark.parametrize("mix,seed", [("growing-system", 4), ("clones", 1),
                                          ("uniform-generators", 2)])
    def test_snapshots_equal_full_writes_and_share_unchanged_files(
            self, tmp_path, adapter, mix, seed):
        system = write_initial_system(tmp_path / "in")
        donors = [write_donor(tmp_path / "donors", f"donor{i}", tests=8)
                  for i in range(2)]
        config = RunConfig(distribution=CLONE_MIX) if mix == "clones" else preset(mix)
        config.max_iterations, config.seed = 40, seed
        out = tmp_path / "out"
        run(config, system, donors, out)
        previous: dict[str, tuple[bytes, int]] = {}
        linked = written = 0
        for revision, tree in replay_history(out, adapter):
            full = tmp_path / "full"
            materialize_tree(tree, full)
            snap = out / "revisions" / f"{revision:04d}"
            assert _files(snap) == _files(full), f"revision {revision}"
            shutil.rmtree(full)
            current = {rel: (data, (snap / rel).stat().st_ino)
                       for rel, data in _files(snap).items()}
            for rel, (data, inode) in current.items():
                unchanged = rel in previous and previous[rel][0] == data
                assert (rel in previous and previous[rel][1] == inode) == unchanged, \
                    f"revision {revision}: {rel}"
                linked += unchanged
                written += not unchanged
            previous = current
        assert linked > written > 0

    def test_failing_link_writes_identical_unlinked_files(self, tmp_path, monkeypatch):
        system = write_initial_system(tmp_path / "in")
        donors = [write_donor(tmp_path / "donors", "widget")]
        config = RunConfig(max_iterations=20, seed=3)
        run(config, system, donors, tmp_path / "linked")

        def refuse(*args, **kwargs):
            raise OSError("hard links not supported")
        monkeypatch.setattr(os, "link", refuse)
        run(config, system, donors, tmp_path / "copied")
        assert _files(tmp_path / "copied") == _files(tmp_path / "linked")
        assert all(p.stat().st_nlink == 1
                   for p in (tmp_path / "copied").rglob("*") if p.is_file())
        assert any(p.stat().st_nlink > 1
                   for p in (tmp_path / "linked").rglob("*") if p.is_file())

    def test_plain_copy_validates(self, history, adapter, tmp_path):
        copy = tmp_path / "copy"
        shutil.copytree(history, copy)
        assert all(p.stat().st_nlink == 1 for p in copy.rglob("*") if p.is_file())
        report = validate_history(copy, adapter)
        assert report.ok, report.violations

    def test_tampered_linked_file_is_reported_where_it_is_shared(self, history,
                                                                 adapter):
        snaps = _snapshots(history)
        # a file shared by some revisions but not all of them
        for snap in snaps:
            for victim in sorted(snap.rglob("*.mini")):
                rel = victim.relative_to(snap)
                inode = victim.stat().st_ino
                sharing = {s.name for s in snaps
                           if (s / rel).is_file() and (s / rel).stat().st_ino == inode}
                if 1 < len(sharing) < len(snaps):
                    break
            else:
                continue
            break
        else:
            pytest.fail("no file is shared by only some revisions")
        with open(victim, "ab") as fh:
            fh.write(b"tampered\n")
        report = validate_history(history, adapter)
        assert {v["where"] for v in report.violations
                if v["kind"] == "replay-fidelity"} == sharing

    def test_listings_from_bytes_equal_disk_listings(self, history, adapter):
        # the check of bytes read once, with the replayed tree whose kept
        # problems validate reuses, equals a fresh check of the directory and
        # of its parsed tree
        snapshots = _snapshots(history)
        for revision, tree in replay_history(history, adapter):
            snap = snapshots[revision]
            files = _read_snapshot(snap)
            assert files == _entries(snap) == _tree_files(tree)
            problems = check_snapshot_dir(snap, adapter, files, tree)
            assert problems == check_snapshot_dir(snap, adapter, files) == \
                check_snapshot_dir(snap, adapter) == \
                check_tree(parse_snapshot(snap), adapter)
        assert revision == len(snapshots) - 1

    def test_listings_from_bytes_keep_line_breaks_of_disk_reads(self, tmp_path,
                                                                adapter):
        snap = tmp_path / "snap"
        (snap / "repo" / "lib" / "deep").mkdir(parents=True)
        (snap / "empty").mkdir()
        contents = {
            "repo/project.manifest": b"name: repo\r\nslices: lib\r\n",
            "repo/main.mini": b"\xef\xbb\xbfdef main {\rimport lib.x\r\r\n}\n}\n",
            "repo/lib/x.mini": b"def x {\n}\x0c}\n\xe2\x80\xa8tail",
            "repo/lib/deep/empty.mini": b"",
            "repo/lib/notes.txt": b"not checked\n",
            "top.mini": b"def top {\n",
        }
        for rel, data in contents.items():
            (snap / rel).write_bytes(data)
        files = _read_snapshot(snap)
        assert files == {"empty": None, "repo": None, "repo/lib": None,
                         "repo/lib/deep": None} | contents
        # line numbers count every break str.splitlines knows, as a parse does
        expected = ["repo/lib/x.mini:2: unbalanced closing brace",
                    "repo/main.mini:4: unbalanced closing brace",
                    "repo/main.mini: unresolved 'import lib.x'"]
        assert check_snapshot_dir(snap, adapter, files) == expected
        assert check_snapshot_dir(snap, adapter) == expected
        assert check_tree(parse_snapshot(snap), adapter) == expected


class TestFeatureStateBytes:
    """``features/NNNN.json`` is assembled from per-repository fragments,
    each kept on its repository node until the node is owned again; the
    bytes stay those of one ``json.dumps`` of the tree's feature state."""

    @pytest.mark.parametrize("mix", [*PRESET_NAMES, "variants"])
    def test_every_revision_equals_a_full_dump(self, tmp_path, adapter, mix):
        system = write_initial_system(tmp_path / "in")
        donors = [write_donor(tmp_path / "donors", f"donor{i}", tests=12, modules=4)
                  for i in range(2)]
        config = RunConfig(distribution=CLONE_MIX) if mix == "variants" else preset(mix)
        config.max_iterations = 50 if mix == "variants" else 120
        config.seed = 1
        out = tmp_path / "out"
        run(config, system, donors, out)
        most_repositories = 0
        for revision, tree in replay_history(out, adapter):
            stored = (out / "features" / f"{revision:04d}.json").read_bytes()
            assert stored == reference_feature_state(tree), f"revision {revision}"
            most_repositories = max(most_repositories, len(tree.repositories))
        if mix == "variants":
            assert most_repositories > 2

    def test_no_repositories(self, tmp_path):
        tree = AssetTree()
        write_feature_state(tree, tmp_path)
        assert (tmp_path / "features" / "0000.json").read_bytes() == \
            reference_feature_state(tree)

    def test_awkward_text_and_reused_fragments(self, tmp_path):
        names = ["caf\u00e9 \u4e2d\U0001f600", 'say "hi" \\ back', "tab\there\x01\x1f\x7f",
                 '"asset": "3:/r#0', '"asset": "4:', "line\nbreak\u2028"]
        tree = AssetTree()
        repos = [build_repo(tree, name, {"a.mini": ["x"], "d/b.mini": ["y"]})
                 for name in ("plain", 'qu"ote \u00fc', "zz")]
        for repo in repos:
            repo.feature_model.root.children = [Feature(n, f"op {n}") for n in names]
            for node, chosen in zip(repo.iter_nodes(), (names[:2], names[2:], names)):
                node.mapped_features = {(repo.name, n) for n in chosen}
        tree.revision = 3

        def check(tree):
            write_feature_state(tree, tmp_path)
            path = tmp_path / "features" / f"{tree.revision:04d}.json"
            assert path.read_bytes() == reference_feature_state(tree)
            return {repo.name: repo.derived["fragment"]
                    for repo in tree.repositories}

        first = check(tree)
        # one repository changes, the other two are reused
        twin = tree.clone()
        twin.own("zz")
        twin.find_repository("zz").children[0].mapped_features = {("zz", names[3])}
        twin.revision += 1
        second = check(twin)
        assert second["plain"] is first["plain"]
        assert second["zz"] is not first["zz"]
        # nothing changes; revision 9 to 10 changes the prefix length
        for _ in range(6):
            twin = twin.clone()
            twin.revision += 1
            assert all(fragment is second[name]
                       for name, fragment in check(twin).items())
        assert twin.revision == 10
