"""History serialization: snapshots, meta-data ledger, replay, validation.

Layout of a generated history directory:

    out/
      revisions/NNNN/     full codebase snapshot per committed revision; a file
                          unchanged since revision N-1 is a hard link to it
      ledger.ndjson       one operation record per line, in commit order
      traces.ndjson       one clone trace per line, append order
      features/NNNN.json  per-revision feature models and asset-to-feature map
      run.json            run configuration and summary
      debug.log           rolled-back and skipped attempts (not part of the
                          ledger contract)

All text is UTF-8 with LF line endings; identical inputs produce bit-identical
directories.

Snapshots, files and folders alike, have one in-memory form, the ``Snapshot``
map: ``_tree_files`` renders it, ``_read_snapshot`` reads it from a directory
(seed, donor, stored snapshot), ``_build_tree`` parses and ``_write_tree``
writes it.

The ledger has one replay path, ``replay_records``, behind validate, stats
and replay: it executes each record on the previous revision and requires the
record the execution returns to equal the stored one, so every sub-operation
and every ref it names is checked exactly.  Stored traces are checked the same
way: validate compares them in full with the replayed ones and names the first
line that differs.

The feature state has one encoder too: ``feature_state`` joins the
repositories' fragments into the bytes of ``features/NNNN.json``, which
generate writes and validate compares with the stored file byte for byte.  A
repository's render and fragment are kept on its node (``AssetNode.derived``).
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Iterator, Optional

from . import model
from .errors import (EvogenError, LedgerIoError, ReplayDivergence,
                     SnapshotIoError, utf8_text)
from .model import (AssetNode, AssetTree, CloneTrace, FILE, FOLDER, Feature,
                    FeatureModel, REPOSITORY)
from .operations import execute
# make_asset_ref is unused here, but perfbench/tracer.py patches
# history.make_asset_ref, so the binding stays until the benchmark drops it
from .refs import make_asset_ref, repository_refs  # noqa: F401

SCHEMA_VERSION = 1


# -- snapshot maps -----------------------------------------------------------

#: a snapshot held in memory: snapshot-relative path -> file bytes, or None
#: for a repository or folder, parents before their children
Snapshot = dict[str, Optional[bytes]]


#: a stored snapshot's files as one read saw them: path -> ((device, inode),
#: bytes)
Inodes = dict[str, tuple[tuple[int, int], bytes]]


def _read_file(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _read_snapshot(root: Path, prefix: str = "",
                   inodes: Optional[Inodes] = None) -> Snapshot:
    """A directory read into memory with one walk, siblings in name order,
    each path led by `prefix`: the one reader of seed systems, donors and
    stored snapshots.

    `inodes` carries the files of one stored snapshot's read to the next.  A
    file whose device and inode, from one ``stat`` of the file its path
    names, equal those `inodes` holds for its path takes the held bytes
    without being opened: two files that exist at once have one device and
    inode only when they are one file.  On return, `inodes` holds this
    read's files and no others."""
    if not root.is_dir():
        raise SnapshotIoError(f"not a directory: {root}")
    inodes = {} if inodes is None else inodes
    files: Snapshot = {}
    seen: Inodes = {}

    def walk(path: str, rel: str) -> None:
        for entry in sorted(os.scandir(path), key=attrgetter("name")):
            name = rel + entry.name
            if entry.is_dir():
                files[name] = None
                walk(entry.path, name + "/")
            elif entry.is_file():
                st = entry.stat()
                key = (st.st_dev, st.st_ino)
                old = inodes.get(name)
                data = old[1] if old and old[0] == key else _read_file(entry.path)
                files[name] = data
                seen[name] = (key, data)

    walk(str(root), prefix)
    inodes.clear()
    inodes.update(seen)
    return files


def _build_tree(files: Snapshot) -> AssetTree:
    """The asset tree of a snapshot map in ``_read_snapshot``'s order, so
    node ids run in preorder with siblings by name.  Every top-level folder
    becomes a repository with a root feature of its name; top-level files
    are ignored.  Raises SnapshotIoError naming a file that is not UTF-8."""
    tree = AssetTree()
    nodes: dict[str, AssetNode] = {}
    for rel, data in files.items():
        parent, _, name = rel.rpartition("/")
        if not parent:
            if data is None:
                nodes[rel] = repo = tree.new_node(REPOSITORY, name)
                repo.feature_model = FeatureModel(Feature(name, origin=f"init:{name}"))
                tree.root.children.append(repo)
            continue
        if data is None:
            nodes[rel] = node = tree.new_node(FOLDER, name)
        else:
            node = tree.new_node(FILE, name, content=utf8_text(data, rel).splitlines())
        nodes[parent].children.append(node)
    return tree


def parse_initial_system(path: Path) -> AssetTree:
    """The codebase at `path` becomes the single initial repository, named after it."""
    path = Path(os.path.abspath(path))
    return _build_tree({path.name: None} | _read_snapshot(path, f"{path.name}/"))


def parse_snapshot(path: Path) -> AssetTree:
    """Re-parse a materialized snapshot (repositories are top-level dirs)."""
    return _build_tree(_read_snapshot(Path(path)))


def _file_bytes(node: AssetNode) -> bytes:
    """Snapshot bytes of a file node: UTF-8 lines, each ending in LF."""
    lines = model.flatten_lines(node)
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def _repo_files(repo: AssetNode) -> Snapshot:
    """The render of one repository, kept on its node."""
    if "files" not in repo.derived:
        files: Snapshot = {}

        def walk(node: AssetNode, rel: str) -> None:
            files[rel] = None
            for child in node.children:
                path = f"{rel}/{child.name}"
                if child.kind != FILE:
                    walk(child, path)
                else:
                    files[path] = _file_bytes(child)

        walk(repo, repo.name)
        repo.derived["files"] = files
    return repo.derived["files"]


def _tree_files(tree: AssetTree) -> Snapshot:
    """The one render of a tree's snapshot: its repositories' renders."""
    files: Snapshot = {}
    for repo in tree.repositories:
        files.update(_repo_files(repo))
    return files


def _write_tree(files: Snapshot, dest: Path, previous: Optional[Snapshot] = None,
                link_dir: Optional[Path] = None) -> None:
    """Write a snapshot map under `dest`.  A file whose bytes equal
    ``previous[rel]`` becomes a hard link to ``link_dir/rel``, or is written
    when linking fails.  Paths are joined as strings, one per entry."""
    dest.mkdir(parents=True, exist_ok=True)
    root = os.fspath(dest)
    source = os.fspath(link_dir) if link_dir is not None else None
    for rel, data in files.items():
        path = f"{root}/{rel}"
        if data is None:
            try:
                os.mkdir(path)
            except OSError:  # as Path.mkdir(exist_ok=True)
                if not os.path.isdir(path):
                    raise
            continue
        if previous is not None and previous.get(rel) == data:
            try:
                os.link(f"{source}/{rel}", path)
                continue
            except OSError:
                pass
        with open(path, "wb") as fh:
            fh.write(data)


def materialize_tree(tree: AssetTree, dest: Path) -> None:
    _write_tree(_tree_files(tree), Path(dest))


def write_snapshot(tree: AssetTree, revision: int, out_dir: Path,
                   previous: Optional[Snapshot] = None) -> Snapshot:
    """Mirror the asset tree to out/revisions/NNNN; idempotent.

    `previous` is the render this function returned for revision N-1: every
    file whose bytes it repeats is hard-linked from ``revisions/<N-1>``.
    Returns the render.
    """
    files = _tree_files(tree)
    revisions = Path(out_dir) / "revisions"
    target = revisions / f"{revision:04d}"
    try:
        if target.exists():
            shutil.rmtree(target)
        _write_tree(files, target, previous, revisions / f"{revision - 1:04d}")
    except OSError as exc:
        raise SnapshotIoError(str(exc)) from exc
    return files


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


#: what every mapped asset's ref starts with in a repository's fragment
_ASSET_AT = '"asset": "{}:'


def _model_json(feature: Feature, indent: str) -> str:
    """A feature and its subtree as ``json.dumps(sort_keys=True, indent=1)``
    writes them, each line after the first led by `indent`."""
    inner = indent + " "
    children = "[]"
    if feature.children:
        item = inner + " "
        children = "[\n" + ",\n".join(item + _model_json(c, item)
                                      for c in feature.children) + f"\n{inner}]"
    return (f'{{\n{inner}"children": {children},'
            f'\n{inner}"name": {encode_basestring_ascii(feature.name)},'
            f'\n{inner}"origin": {encode_basestring_ascii(feature.origin)}\n{indent}}}')


def _repo_fragment(tree: AssetTree, repo: AssetNode) -> list[str]:
    """A repository's entry in ``features/NNNN.json``, kept on its node: its
    feature model and the features of every mapped asset, sorted by asset
    ref, as indented JSON text split where a mapped asset's ref names the
    revision."""
    if "fragment" not in repo.derived:
        mapped = sorted(((ref.to_text(), node.mapped_features) for node, ref in
                         repository_refs(tree, repo, attrgetter("mapped_features"))),
                        key=itemgetter(0))
        mappings = ",\n".join(
            f'    {{\n     "asset": {encode_basestring_ascii(ref)},\n     "features": [\n'
            + ",\n".join("      " + encode_basestring_ascii(name)
                         for name in sorted(map("/".join, features)))
            + "\n     ]\n    }"
            for ref, features in mapped)
        mappings = f"[\n{mappings}\n   ]" if mapped else "[]"
        model = (_model_json(repo.feature_model.root, "   ")
                 if repo.feature_model else "null")
        entry = f'{{\n   "mappings": {mappings},\n   "model": {model}\n  }}'
        repo.derived["fragment"] = entry.split(_ASSET_AT.format(tree.revision))
    return repo.derived["fragment"]


def feature_state(tree: AssetTree) -> bytes:
    """The bytes of ``features/NNNN.json``, joined from the repositories'
    fragments: the schema version, the revision and, by repository name,
    each repository's feature model and mappings, as
    ``json.dumps(sort_keys=True, indent=1)`` and a final LF write them."""
    at = _ASSET_AT.format(tree.revision)
    entries = ",".join(
        f"\n  {encode_basestring_ascii(repo.name)}: {at.join(_repo_fragment(tree, repo))}"
        for repo in sorted(tree.repositories, key=attrgetter("name")))
    repos = f"{{{entries}\n }}" if entries else "{}"
    return (f'{{\n "repos": {repos},\n "revision": {tree.revision},'
            f'\n "schema": {SCHEMA_VERSION}\n}}\n').encode("ascii")


def write_feature_state(tree: AssetTree, out_dir: Path) -> None:
    """Write ``features/NNNN.json``."""
    features_dir = Path(out_dir) / "features"
    features_dir.mkdir(parents=True, exist_ok=True)
    (features_dir / f"{tree.revision:04d}.json").write_bytes(feature_state(tree))


def _read_ndjson(path: Path, what: str) -> list[dict]:
    """The JSON value of every line of `path`; raises ReplayDivergence at
    the first line that is not UTF-8 text or not JSON."""
    if not path.is_file():
        return []
    records = []
    for i, line in enumerate(path.read_bytes().splitlines()):
        try:
            records.append(json.loads(utf8_text(line, path.name)))
        except (SnapshotIoError, json.JSONDecodeError) as exc:
            raise ReplayDivergence(i, f"malformed {what} line: {exc}") from exc
    return records


#: keys replay and validation read from every ledger record and trace line
LEDGER_KEYS = ("kind", "params", "op_id", "revision_before", "revision_after")
TRACE_KEYS = ("op", "source", "target")


def _require_keys(lines: list[dict], keys: tuple[str, ...], what: str) -> None:
    for i, line in enumerate(lines):
        missing = [k for k in keys if k not in line] if isinstance(line, dict) else keys
        if missing:
            raise ReplayDivergence(i, f"{what} line lacks {', '.join(missing)}")


def _shape_problem(record: dict, where: str = "") -> Optional[str]:
    """Why a ledger record is not of the shape ``append_ledger`` writes, or
    None: its `params` must be an object and its `sub_ops` a list of records
    of the same shape."""
    if not isinstance(record.get("params", {}), dict):
        return f"{where}params is not an object"
    subs = record.get("sub_ops", [])
    if not isinstance(subs, list) or not all(isinstance(sub, dict) for sub in subs):
        return f"{where}sub_ops is not a list of objects"
    for i, sub in enumerate(subs):
        problem = _shape_problem(sub, f"{where}sub_ops[{i}].")
        if problem:
            return problem
    return None


def read_ledger(out_dir: Path) -> list[dict]:
    """The ledger's records, in commit order.  Raises ReplayDivergence at the
    first line that does not parse, lacks one of LEDGER_KEYS or is not of
    the shape ``_shape_problem`` requires."""
    records = _read_ndjson(Path(out_dir) / "ledger.ndjson", "ledger")
    _require_keys(records, LEDGER_KEYS, "ledger")
    for i, record in enumerate(records):
        problem = _shape_problem(record)
        if problem:
            raise ReplayDivergence(i, f"ledger line {problem}")
    return records


# -- replay ------------------------------------------------------------------

def _differing_keys(stored: dict, replayed: dict) -> str:
    """The keys whose values differ between two lines, sorted and joined."""
    return ", ".join(sorted(k for k in replayed.keys() | stored.keys()
                            if replayed.get(k) != stored.get(k)))


#: what an operation raises on ledger params of the wrong shape or type, such
#: as a ref that does not parse; replay reports them as a divergence
_MALFORMED_PARAMS = (LookupError, TypeError, ValueError, AttributeError)


def replay_records(tree: AssetTree, records: list[dict],
                   adapter) -> Iterator[tuple[int, AssetTree]]:
    """Execute the ledger's records on the revision-0 tree, in place,
    yielding every revision from 0.  Raises ReplayDivergence unless each
    stored record equals the record its execution returns, as
    ``append_ledger`` writes it: revisions, parameters and sub-operations."""
    yield 0, tree
    for i, stored in enumerate(records):
        try:
            record = execute(tree, stored["kind"], stored["params"],
                             stored["op_id"], adapter=adapter)
        except (EvogenError, *_MALFORMED_PARAMS) as exc:
            raise ReplayDivergence(i, f"{type(exc).__name__}: {exc}") from exc
        replayed = {"schema": SCHEMA_VERSION} | record.to_dict()
        if replayed != stored:
            raise ReplayDivergence(
                i, f"record differs from its replay in {_differing_keys(stored, replayed)}")
        tree.revision += 1
        yield tree.revision, tree


def replay_history(out_dir: Path, adapter) -> Iterator[tuple[int, AssetTree]]:
    """Re-execute the ledger on top of revision 0, yielding every revision."""
    yield from replay_records(parse_snapshot(Path(out_dir) / "revisions" / "0000"),
                              read_ledger(out_dir), adapter)


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


def validate_history(out_dir: Path, adapter) -> ValidationReport:
    """Cross-check a generated history in one replay pass: each ledger
    record against its replay, each snapshot and feature state against the
    replayed tree, each snapshot's compilability, and the stored traces
    against the replayed ones."""
    from .minilang import check_snapshot_dir
    out_dir = Path(out_dir)
    report = ValidationReport()
    revisions_dir = out_dir / "revisions"
    if not revisions_dir.is_dir():
        report.add("layout", str(out_dir), "missing revisions directory")
        return report

    snapshots = sorted(p for p in revisions_dir.iterdir() if p.is_dir())
    if not snapshots:
        report.add("layout", str(revisions_dir), "revision 0000 missing")
        return report
    expected = [f"{i:04d}" for i in range(len(snapshots))]
    if [p.name for p in snapshots] != expected:
        report.add("layout", str(revisions_dir), "revision directories not dense")
        return report

    try:
        records = read_ledger(out_dir)
    except ReplayDivergence as exc:
        report.add("ledger", "ledger.ndjson", str(exc))
        return report
    # a torn tail: what a run wrote past its last ledger record
    for snap in snapshots[len(records) + 1:]:
        report.add("layout", snap.name, "no ledger record")
    for path in sorted((out_dir / "features").glob("*.json")):
        if path.stem.isascii() and path.stem.isdigit() and int(path.stem) > len(records):
            report.add("layout", path.name, "no ledger record")

    run_path = out_dir / "run.json"
    if run_path.is_file():
        try:
            summary = json.loads(run_path.read_text(encoding="utf-8"))
        except ValueError as exc:
            report.add("ledger", "run.json", f"malformed run.json: {exc}")
        else:
            counts = summary.get("summary", {}) if isinstance(summary, dict) else None
            if not isinstance(counts, dict):
                report.add("ledger", "run.json",
                           "run.json or its summary is not an object")
            elif counts.get("committed_total") not in (None, len(records)):
                report.add("ledger", "run.json",
                           f"ledger has {len(records)} records,"
                           f" run.json says {counts['committed_total']}")

    try:
        stored_traces = _read_ndjson(out_dir / "traces.ndjson", "trace")
        _require_keys(stored_traces, TRACE_KEYS, "trace")
    except ReplayDivergence as exc:
        report.add("trace-consistency", "traces.ndjson", str(exc))
        return report
    inodes: Inodes = {}
    files = _read_snapshot(revisions_dir / "0000", inodes=inodes)

    try:
        for revision, tree in replay_records(_build_tree(files), records, adapter):
            snap = revisions_dir / f"{revision:04d}"
            if revision:  # revision 0 was read above
                if not snap.is_dir():
                    report.add("replay", snap.name, "snapshot missing")
                    continue
                files = _read_snapshot(snap, inodes=inodes)
            faithful = _tree_files(tree) == files
            if not faithful:
                report.add("replay-fidelity", snap.name,
                           "replayed state differs from stored snapshot")
            try:
                # one call per revision with the snapshot directory first: the
                # benchmark's tracer counts repositories from that argument
                problems = check_snapshot_dir(snap, adapter, files,
                                              tree if faithful else None)
            except SnapshotIoError as exc:
                problems = [str(exc)]
            for problem in problems:
                report.add("compilability", snap.name, problem)
            state_path = out_dir / "features" / f"{revision:04d}.json"
            if not state_path.is_file():
                report.add("layout", state_path.name, "feature state missing")
            elif state_path.read_bytes() != feature_state(tree):
                report.add("mapping-consistency", state_path.name,
                           "stored feature state differs from replayed state")
    except ReplayDivergence as exc:
        report.add("replay", "ledger.ndjson", str(exc))
        return report
    except SnapshotIoError as exc:  # revision 0 does not parse
        report.add("replay", "0000", str(exc))
        return report

    replayed = [_trace_line(t) for t in tree.traces.traces]
    for i, (stored, line) in enumerate(zip(stored_traces, replayed)):
        if stored != line:
            report.add("trace-consistency", "traces.ndjson", f"trace line {i}"
                       f" differs from its replay in {_differing_keys(stored, line)}")
            return report
    if len(stored_traces) != len(replayed):
        report.add("trace-consistency", "traces.ndjson",
                   f"stored {len(stored_traces)} traces, replay yields {len(replayed)}")
    return report
