"""History serialization: snapshots, meta-data ledger, replay, validation.

Layout of a generated history directory:

    out/
      revisions/NNNN/     full codebase snapshot per committed revision
      ledger.ndjson       one operation record per line, in commit order
      traces.ndjson       one clone trace per line, append order
      features/NNNN.json  per-revision feature models and asset-to-feature map
      run.json            run configuration and summary
      debug.log           rolled-back and skipped attempts (not part of the
                          ledger contract)

All text is UTF-8 with LF line endings; identical inputs produce bit-identical
directories.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

from . import model
from .errors import (EvogenError, LedgerIoError, ReplayDivergence,
                     SnapshotIoError)
from .model import (AssetNode, AssetTree, CloneTrace, FILE, FOLDER, Feature,
                    FeatureModel, REPOSITORY, _feature_to_dict)
from .operations import execute
from .refs import AssetRef, FeatureRef, make_asset_ref, resolve_asset_ref, resolve_feature_ref

SCHEMA_VERSION = 1


# -- parsing codebases from disk ---------------------------------------------

def parse_directory(tree: AssetTree, path: Path, kind: str) -> AssetNode:
    """Read a directory into an asset node; children ordered by name."""
    node = tree.new_node(kind, path.name)
    for entry in sorted(path.iterdir(), key=lambda p: p.name):
        if entry.is_dir():
            node.children.append(parse_directory(tree, entry, FOLDER))
        elif entry.is_file():
            content = entry.read_text(encoding="utf-8").splitlines()
            node.children.append(tree.new_node(FILE, entry.name, content=content))
    return node


def parse_initial_system(path: Path) -> AssetTree:
    """The user-provided codebase becomes the single initial repository."""
    path = Path(path)
    if not path.is_dir():
        raise SnapshotIoError(f"not a directory: {path}")
    tree = AssetTree()
    repo = parse_directory(tree, path, REPOSITORY)
    repo.feature_model = FeatureModel(Feature(repo.name, origin=f"init:{repo.name}"))
    tree.root.children.append(repo)
    return tree


def parse_snapshot(path: Path) -> AssetTree:
    """Re-parse a materialized snapshot (repositories are top-level dirs)."""
    path = Path(path)
    if not path.is_dir():
        raise SnapshotIoError(f"not a directory: {path}")
    tree = AssetTree()
    for entry in sorted(path.iterdir(), key=lambda p: p.name):
        if entry.is_dir():
            repo = parse_directory(tree, entry, REPOSITORY)
            repo.kind = REPOSITORY
            repo.feature_model = FeatureModel(Feature(repo.name, origin=f"init:{repo.name}"))
            tree.root.children.append(repo)
    return tree


# -- snapshot writing --------------------------------------------------------

def _file_bytes(node: AssetNode) -> bytes:
    """Snapshot bytes of a file node: UTF-8 lines, each ending in LF."""
    lines = model.flatten_lines(node)
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def _fs_nodes(tree: AssetTree) -> Iterator[tuple[str, AssetNode]]:
    """(relative path, node) of every repository, folder and file, parents
    before children."""
    def walk(node: AssetNode, rel: str):
        yield rel, node
        if node.kind != FILE:
            for child in node.children:
                yield from walk(child, f"{rel}/{child.name}")
    for repo in tree.repositories:
        yield from walk(repo, repo.name)


def _tree_files(tree: AssetTree) -> dict[str, bytes]:
    """In-memory render of a snapshot: relative path -> file bytes."""
    return {rel: _file_bytes(node) for rel, node in _fs_nodes(tree)
            if node.kind == FILE}


def materialize_tree(tree: AssetTree, dest: Path) -> None:
    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    for rel, node in _fs_nodes(tree):
        if node.kind == FILE:
            (dest / rel).write_bytes(_file_bytes(node))
        else:
            (dest / rel).mkdir(parents=True, exist_ok=True)


def write_snapshot(tree: AssetTree, revision: int, out_dir: Path) -> Path:
    """Mirror the asset tree to out/revisions/NNNN; idempotent."""
    target = Path(out_dir) / "revisions" / f"{revision:04d}"
    try:
        if target.exists():
            shutil.rmtree(target)
        materialize_tree(tree, target)
    except OSError as exc:
        raise SnapshotIoError(str(exc)) from exc
    return target


# -- ledger and meta-data files ----------------------------------------------

def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def append_ledger(record_dict: dict, out_dir: Path) -> None:
    try:
        with open(Path(out_dir) / "ledger.ndjson", "a", encoding="utf-8",
                  newline="\n") as fh:
            fh.write(_dump({"schema": SCHEMA_VERSION} | record_dict) + "\n")
    except OSError as exc:
        raise LedgerIoError(str(exc)) from exc


def _trace_line(trace: CloneTrace) -> dict:
    return {"schema": SCHEMA_VERSION, "op": trace.op_id,
            "source": trace.source_ref, "target": trace.target_ref,
            "source_node": trace.source_node, "target_node": trace.target_node}


def append_traces(traces: list, out_dir: Path) -> None:
    try:
        with open(Path(out_dir) / "traces.ndjson", "a", encoding="utf-8",
                  newline="\n") as fh:
            for t in traces:
                fh.write(_dump(_trace_line(t)) + "\n")
    except OSError as exc:
        raise LedgerIoError(str(exc)) from exc


def feature_state(tree: AssetTree) -> dict:
    repos = {}
    for repo in tree.repositories:
        mappings = []
        for node in repo.iter_nodes():
            if node.mapped_features:
                mappings.append({
                    "asset": make_asset_ref(tree, node).to_text(),
                    "features": sorted("/".join(p) for p in node.mapped_features),
                })
        mappings.sort(key=lambda m: m["asset"])
        repos[repo.name] = {
            "model": _feature_to_dict(repo.feature_model.root)
            if repo.feature_model else None,
            "mappings": mappings,
        }
    return {"schema": SCHEMA_VERSION, "revision": tree.revision, "repos": repos}


def write_feature_state(tree: AssetTree, out_dir: Path) -> None:
    features_dir = Path(out_dir) / "features"
    features_dir.mkdir(parents=True, exist_ok=True)
    path = features_dir / f"{tree.revision:04d}.json"
    path.write_text(json.dumps(feature_state(tree), sort_keys=True, indent=1)
                    + "\n", encoding="utf-8", newline="\n")


def read_ledger(out_dir: Path) -> list[dict]:
    path = Path(out_dir) / "ledger.ndjson"
    if not path.is_file():
        return []
    records = []
    for i, line in enumerate(path.read_text(encoding="utf-8").splitlines()):
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise ReplayDivergence(i, f"malformed ledger line: {exc}") from exc
    return records


# -- replay ------------------------------------------------------------------

def replay_history(out_dir: Path, adapter) -> Iterator[tuple[int, AssetTree]]:
    """Re-execute the ledger on top of revision 0, yielding every revision."""
    out_dir = Path(out_dir)
    tree = parse_snapshot(out_dir / "revisions" / "0000")
    yield 0, tree
    for i, record in enumerate(read_ledger(out_dir)):
        try:
            execute(tree, record["kind"], record["params"], record["op_id"],
                    adapter=adapter)
        except EvogenError as exc:
            raise ReplayDivergence(i, f"{type(exc).__name__}: {exc}") from exc
        tree.revision += 1
        if tree.revision != record["revision_after"]:
            raise ReplayDivergence(i, "revision counter mismatch")
        yield tree.revision, tree


# -- validation --------------------------------------------------------------

@dataclass
class ValidationReport:
    violations: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, where: str, message: str) -> None:
        self.violations.append({"kind": kind, "where": where, "message": message})

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": self.violations}


def _dir_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _ref_fields(record: dict) -> Iterator[tuple[str, str]]:
    params = record.get("params", {})
    for key in ("target", "source", "asset", "insertion_parent"):
        if key in params and isinstance(params[key], str):
            yield key, params[key]
    for key in ("feature", "target_parent"):
        if key in params and isinstance(params[key], str) and "!" in params[key]:
            yield key, params[key]
    for sub in record.get("sub_ops", []):
        yield from _ref_fields(sub)


def _ref_checks(records: list[dict], trace_lines: list[dict]
                ) -> dict[int, list[tuple]]:
    """Every ref the traces and the ledger name, keyed by the revision it must
    resolve at, as (resolver, ref, where, message) in report order."""
    checks: dict[int, list[tuple]] = {}
    for line in trace_lines:
        for key in ("source", "target"):
            ref = AssetRef.from_text(line[key])
            checks.setdefault(ref.revision, []).append(
                (resolve_asset_ref, ref, line["op"],
                 f"trace {key} {line[key]} does not resolve"))
    for record in records:
        for key, text in _ref_fields(record):
            if "!" not in text:
                ref = AssetRef.from_text(text)
                revision, resolve = ref.revision, resolve_asset_ref
            elif record["kind"] == "RemoveFeature" or key == "feature":
                continue  # feature may be gone after its own removal
            else:
                ref = FeatureRef.from_text(text)
                revision, resolve = record["revision_before"], resolve_feature_ref
            checks.setdefault(revision, []).append(
                (resolve, ref, record["op_id"], f"{key} {text} does not resolve"))
    return checks


def validate_history(out_dir: Path, adapter) -> ValidationReport:
    """Cross-check replay fidelity, ref resolvability, compilability and
    trace/mapping consistency of a generated history in one replay pass."""
    from .minilang import check_snapshot_dir
    out_dir = Path(out_dir)
    report = ValidationReport()
    revisions_dir = out_dir / "revisions"
    if not revisions_dir.is_dir():
        report.add("layout", str(out_dir), "missing revisions directory")
        return report

    snapshots = sorted(p for p in revisions_dir.iterdir() if p.is_dir())
    expected = [f"{i:04d}" for i in range(len(snapshots))]
    if [p.name for p in snapshots] != expected:
        report.add("layout", str(revisions_dir), "revision directories not dense")
        return report

    try:
        records = read_ledger(out_dir)
    except ReplayDivergence as exc:
        report.add("ledger", "ledger.ndjson", str(exc))
        return report

    run_path = out_dir / "run.json"
    if run_path.is_file():
        summary = json.loads(run_path.read_text())
        committed = summary.get("summary", {}).get("committed_total")
        if committed is not None and committed != len(records):
            report.add("ledger", "run.json",
                       f"ledger has {len(records)} records, run.json says {committed}")

    traces_path = out_dir / "traces.ndjson"
    stored_traces = ([json.loads(l) for l in
                      traces_path.read_text(encoding="utf-8").splitlines()]
                     if traces_path.is_file() else [])
    checks = _ref_checks(records, stored_traces)

    try:
        for revision, tree in replay_history(out_dir, adapter):
            for resolve, ref, where, message in checks.pop(revision, ()):
                try:
                    resolve(tree, ref)
                except EvogenError:
                    report.add("ref-resolution", where, message)
            snap = revisions_dir / f"{revision:04d}"
            if not snap.is_dir():
                report.add("replay", snap.name, "snapshot missing")
                continue
            if _tree_files(tree) != _dir_files(snap):
                report.add("replay-fidelity", snap.name,
                           "replayed state differs from stored snapshot")
            for problem in check_snapshot_dir(snap, adapter):
                report.add("compilability", snap.name, problem)
            state_path = out_dir / "features" / f"{revision:04d}.json"
            if not state_path.is_file():
                report.add("layout", state_path.name, "feature state missing")
            else:
                stored = json.loads(state_path.read_text(encoding="utf-8"))
                if stored != feature_state(tree):
                    report.add("mapping-consistency", state_path.name,
                               "stored feature state differs from replayed state")
    except ReplayDivergence as exc:
        report.add("replay", "ledger.ndjson", str(exc))
        return report

    replayed = [_trace_line(t) for t in tree.traces.traces]
    if stored_traces != replayed:
        report.add("trace-consistency", "traces.ndjson",
                   f"stored {len(stored_traces)} traces, replay yields {len(replayed)}")
    return report
