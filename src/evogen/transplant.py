"""Feature transplantation: donor scanning, organ extraction, integration.

Transplantable features are approximated by annotated donor test cases; the
organ is the test plus its file's import statements plus the transitive
module-dependency slice of the donor, and it is integrated into a repository
as new block assets at an insertion point plus a slice directory beneath the
repository.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from . import model
from .errors import (DonorIoError, EvogenError, ForbiddenInsertionPoint,
                     MissingDependency, NotModular, SliceConflict,
                     SnapshotIoError, utf8_text)
from .history import _read_snapshot, _repo_files
from .minilang import _external_covers
from .model import (AssetNode, AssetTree, BLOCK, CloneTrace, DonorProject,
                    FILE, LINE, MANIFEST_NAME, ManifestModel, TestCandidate)
from .operations import (OperationRecord, SLICES_DIR, ensure_folder_path,
                         update_manifest_asset)
from .refs import AssetRef, make_asset_ref, repository_refs, resolve_asset_ref


# -- donor loading and scanning ----------------------------------------------

def load_donor(path: Path, adapter) -> DonorProject:
    """Read a donor project directory into its immutable scan products.
    Raises DonorIoError on a file that cannot be read or is not UTF-8 text."""
    path = Path(path)
    if not (path / MANIFEST_NAME).is_file():
        raise DonorIoError(f"not a donor project: {path}")

    try:
        entries = _read_snapshot(path)
        manifest = adapter.manifest_parse(utf8_text(
            entries[MANIFEST_NAME], f"{path.name}/{MANIFEST_NAME}").splitlines())
        files = {rel: tuple(utf8_text(data, f"{path.name}/{rel}").splitlines())
                 for rel, data in entries.items()
                 if data is not None and adapter.is_source_file(rel.rpartition("/")[2])}
    except (OSError, SnapshotIoError) as exc:
        raise DonorIoError(str(exc)) from exc
    # a nameless donor goes by its directory's name, in its organs' manifests too
    manifest.name = donor_id = manifest.name or path.name

    srcdir = manifest.extras.get("srcdir", "")
    testdir = manifest.extras.get("testdir", "")

    def under(prefix: str, rel: str) -> bool:
        return rel.startswith(prefix + "/") if prefix else True

    src_files = {r for r in files if under(srcdir, r) and not (testdir and under(testdir, r))}
    test_files = {r for r in files if testdir and under(testdir, r)}

    def src_rel(rel: str) -> str:
        return rel[len(srcdir) + 1:] if srcdir else rel

    module_index = {adapter.relpath_to_module(src_rel(r)): r for r in src_files}

    module_deps: dict[str, frozenset[str]] = {}
    external_uses: dict[str, frozenset[str]] = {}
    externals = set(manifest.deps)
    for rel in sorted(src_files):
        deps, ext = _resolve_imports(adapter, files[rel], module_index, externals)
        if deps is None:
            raise MissingDependency(f"{donor_id}:{rel}: {ext}")
        module_deps[rel] = frozenset(deps)
        external_uses[rel] = frozenset(ext)

    candidates: list[TestCandidate] = []
    for rel in sorted(test_files):
        candidates.extend(adapter.scan_tests(rel, list(files[rel])))

    return DonorProject(donor_id, manifest, files, candidates, module_deps,
                        external_uses)


def _resolve_imports(adapter, lines, module_index, externals):
    deps: set[str] = set()
    ext: set[str] = set()
    for line in adapter.scan_imports(list(lines)):
        module = adapter.import_module(line)
        if module in module_index:
            deps.add(module_index[module])
        elif _external_covers(externals, module):
            ext.add(module)
        else:
            return None, f"unresolved import {module!r}"
    return deps, ext


# -- organ extraction --------------------------------------------------------

@dataclass
class Organ:
    """Everything needed to re-create a transplanted feature byte-identically."""

    in_file_deps: list[str]              # the test file's import statements
    slice_files: dict[str, list[str]]    # donor src-relative path -> lines
    manifest_lines: list[str]            # adapted donor manifest, emitted
    body: list[str] = field(default_factory=list)

    def to_params(self) -> dict:
        return {
            "imports": list(self.in_file_deps),
            "body": list(self.body),
            "slice_files": {k: list(v) for k, v in sorted(self.slice_files.items())},
            "manifest": list(self.manifest_lines),
        }


def extract_organ(donor: DonorProject, test_id: str, adapter) -> Organ:
    candidate = donor.candidate(test_id)
    if candidate is None:
        raise EvogenError(f"unknown test candidate {test_id!r}")
    if not candidate.modular:
        raise NotModular(test_id)

    srcdir = donor.manifest.extras.get("srcdir", "")
    testdir = donor.manifest.extras.get("testdir", "")

    def src_rel(rel: str) -> str:
        return rel[len(srcdir) + 1:] if srcdir else rel

    module_index = {adapter.relpath_to_module(src_rel(r)): r
                    for r in donor.module_deps}
    externals = set(donor.manifest.deps)

    roots: set[str] = set()
    test_externals: set[str] = set()
    for line in candidate.imports:
        module = adapter.import_module(line)
        if module in module_index:
            roots.add(module_index[module])
        elif _external_covers(externals, module):
            test_externals.add(module)
        else:
            target = adapter.module_to_relpath(module)
            where = f"{testdir}/{target}" if testdir else target
            if where in donor.files:
                raise MissingDependency(
                    f"{test_id}: dependency {module!r} lives in the test source set")
            raise MissingDependency(f"{test_id}: unresolved import {module!r}")

    slice_set: set[str] = set()
    frontier = sorted(roots)
    while frontier:
        rel = frontier.pop(0)
        if rel in slice_set:
            continue
        slice_set.add(rel)
        frontier.extend(sorted(donor.module_deps.get(rel, ())))

    used_externals = set(test_externals)
    for rel in slice_set:
        used_externals |= donor.external_uses.get(rel, frozenset())

    # the donor manifest keeps its name and slices; deps become those the organ uses
    fragment = ManifestModel(name=donor.manifest.name, deps=sorted(used_externals),
                             slices=list(donor.manifest.slices))
    body = list(donor.files[candidate.file][candidate.body_start:candidate.body_end + 1])
    return Organ(
        in_file_deps=list(candidate.imports),
        slice_files={src_rel(r): list(donor.files[r]) for r in sorted(slice_set)},
        manifest_lines=adapter.manifest_emit(fragment),
        body=body,
    )


# -- integration -------------------------------------------------------------

def legal_insertion_points(repo: AssetNode, adapter) -> list[tuple[str, int]]:
    """(file path, line index) pairs inside method-level blocks of the
    initial-system portion of `repo`, read from its kept render in its order.
    A path is the file's render path, ``<repo>/<folder>/.../<file>``;
    manifests and everything at or under ``<repo>/slices`` are left out."""
    slices = f"{repo.name}/{SLICES_DIR}/"
    return [(path, idx) for path, data in _repo_files(repo).items()
            if data and path.rpartition("/")[2] != MANIFEST_NAME
            and not (path + "/").startswith(slices)
            for idx in adapter.insertion_points(utf8_text(data, path).splitlines())]


def apply_transplant_feature(tree: AssetTree, params: dict, op_id: str,
                             adapter=None) -> OperationRecord:
    """Integrate an organ: the five recorded steps from insertion of the
    guarded test to the new feature mapping."""
    assert adapter is not None
    rev_after = tree.revision + 1
    record = OperationRecord(op_id, "TransplantFeature", dict(params),
                             tree.revision, rev_after)
    tree.own(params.get("repo"))
    repo = tree.find_repository(params["repo"])
    if repo is None or repo.feature_model is None:
        raise EvogenError(f"unknown repository {params['repo']!r}")
    donor_id = params["donor"]
    organ = params["organ"]

    # the ref alone places the parent: a file is addressed by its filesystem
    # path, /<repo>/<folder>/.../<file>, and never by an index path
    parent_ref = AssetRef.from_text(params["insertion_parent"])
    parent = resolve_asset_ref(tree, parent_ref)
    if parent.kind != FILE or parent.name == MANIFEST_NAME or parent_ref.index_path:
        raise ForbiddenInsertionPoint(params["insertion_parent"])
    segments = parent_ref.fs_path.strip("/").split("/")
    if segments[0] != repo.name:
        raise ForbiddenInsertionPoint("insertion point outside target repository")
    if SLICES_DIR in segments[1:-1]:
        raise ForbiddenInsertionPoint("insertion point inside a project slice")

    # (1) guard-wrapped test body and imports become new block assets
    imports_block = tree.new_node(BLOCK, "imports", children=[
        tree.new_node(LINE, "", content=[ln]) for ln in organ["imports"]])
    test_block = tree.new_node(BLOCK, params["test_name"], children=[
        tree.new_node(LINE, "", content=[ln])
        for ln in adapter.guard_wrap(organ["body"])])
    model.explode_file(tree, parent)
    model.insert_nodes_at_flat_index(parent, params["insertion_index"],
                                     [imports_block, test_block])
    for block in (imports_block, test_block):
        record.add_sub("AddAsset", {
            "asset": make_asset_ref(tree, block).at_revision(rev_after).to_text(),
            "kind": BLOCK, "name": block.name})

    # (2) slice files arrive beneath the repository's slice directory,
    # cloned from sibling repositories when already present there
    mapped_assets: list[AssetNode] = [imports_block, test_block]
    slice_root = ensure_folder_path(tree, repo, [SLICES_DIR, donor_id], record)
    for rel, lines in sorted(organ["slice_files"].items()):
        segments = rel.split("/")
        folder = ensure_folder_path(tree, slice_root, segments[:-1], record)
        existing = folder.child_named(segments[-1])
        if existing is not None:
            if existing.kind != FILE:
                raise SliceConflict(rel)
            mapped_assets.append(existing)
            continue
        twin = _find_slice_twin(tree, repo, donor_id, rel)
        if twin is not None:
            node = tree.deep_copy_node(twin)
            node.mapped_features = set()
            for sub in node.iter_nodes():
                sub.mapped_features = set()
            folder.children.append(node)
            source = make_asset_ref(tree, twin).to_text()
            target = make_asset_ref(tree, node).at_revision(rev_after).to_text()
            tree.traces.add(CloneTrace(op_id, source, target, twin.node_id, node.node_id))
            record.add_sub("CloneAsset", {
                "source": source, "target": target,
                "index": len(folder.children) - 1, "features": []})
        else:
            node = tree.new_node(FILE, segments[-1], content=list(lines))
            folder.children.append(node)
            record.add_sub("AddAsset", {
                "asset": make_asset_ref(tree, node).at_revision(rev_after).to_text(),
                "kind": FILE, "name": segments[-1],
                "origin_path": f"{donor_id}/{rel}"})
        mapped_assets.append(node)

    # (3) the evolving system's manifest gains a dependency on the slice
    slice_dir = f"{SLICES_DIR}/{donor_id}"

    def add_slice(manifest):
        if slice_dir not in manifest.slices:
            manifest.slices.append(slice_dir)

    update_manifest_asset(tree, repo, adapter, add_slice, record)

    # (4) the adapted donor manifest becomes a new asset inside the slice
    if slice_root.child_named(MANIFEST_NAME) is None:
        mani = tree.new_node(FILE, MANIFEST_NAME, content=list(organ["manifest"]))
        slice_root.children.append(mani)
        record.add_sub("AddAsset", {
            "asset": make_asset_ref(tree, mani).at_revision(rev_after).to_text(),
            "kind": FILE, "name": MANIFEST_NAME})

    # (5) test, imports and all slice files map to a new root-child feature
    feature_name = _free_feature_name(repo.feature_model, params["test_name"])
    params_out = record.params
    params_out["feature_name"] = feature_name
    feature = model.Feature(feature_name, origin=op_id)
    repo.feature_model.root.children.append(feature)
    feature_path = (repo.feature_model.root.name, feature_name)
    record.add_sub("AddFeature", {"feature": "/".join(feature_path)})
    # all surgery is done: one walk of the repository mints every mapped ref
    mapped_ids = {asset.node_id for asset in mapped_assets}
    refs = {node.node_id: ref for node, ref in repository_refs(
        tree, repo, lambda n: n.node_id in mapped_ids)}
    for asset in mapped_assets:
        asset.mapped_features.add(feature_path)
        record.add_sub("AddMapping", {
            "asset": refs[asset.node_id].at_revision(rev_after).to_text(),
            "features": ["/".join(feature_path)]})
    return record


def _find_slice_twin(tree: AssetTree, repo: AssetNode, donor_id: str,
                     rel: str) -> Optional[AssetNode]:
    """The same donor slice file in another repository, if any repo has it."""
    for other in tree.repositories:
        if other is repo:
            continue
        node = other
        for name in [SLICES_DIR, donor_id] + rel.split("/"):
            node = node.child_named(name) if node is not None else None
        if node is not None and node.kind == FILE:
            return node
    return None


def _free_feature_name(feature_model, base: str) -> str:
    taken = {f.name for f in feature_model.root.iter_features()}
    if base not in taken:
        return base
    n = 2
    while f"{base}_{n}" in taken:
        n += 1
    return f"{base}_{n}"
