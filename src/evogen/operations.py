"""The five evolution operators as transactional asset-tree mutations.

Every applied change is captured in an OperationRecord whose parameters alone
suffice to re-execute it deterministically; low-level edits performed inside a
high-level operator are recorded as nested sub-operations.
"""

from __future__ import annotations

from typing import Callable

from . import model
from .errors import (AlreadyPresent, BadIndex, CannotRemoveRoot,
                     DuplicateRepository, EvogenError, NotMutable,
                     UnrelatedRepositories)
from .model import (AssetNode, AssetTree, CloneTrace, FILE, FOLDER,
                    MANIFEST_NAME, REPOSITORY)
from .refs import (AssetRef, FeatureRef, _child_path, lpq_to_full_path,
                   make_asset_ref, repository_refs, resolve_asset_ref,
                   resolve_feature_ref, walk_asset_refs)

ADD_LINE = "addLine"
REPLACE_LINE = "replaceLine"
DELETE_LINE = "deleteLine"
MUTATION_KINDS = (ADD_LINE, REPLACE_LINE, DELETE_LINE)

SLICES_DIR = "slices"


class OperationRecord:
    def __init__(self, op_id: str, kind: str, params: dict, revision_before: int,
                 revision_after: int) -> None:
        self.op_id = op_id
        self.kind = kind
        self.params = params
        self.revision_before = revision_before
        self.revision_after = revision_after
        self.sub_ops: list[OperationRecord] = []

    def add_sub(self, kind: str, params: dict) -> "OperationRecord":
        sub = OperationRecord(f"{self.op_id}.{len(self.sub_ops)}", kind, params,
                              self.revision_before, self.revision_after)
        self.sub_ops.append(sub)
        return sub

    def to_dict(self) -> dict:
        return {
            "op_id": self.op_id,
            "kind": self.kind,
            "revision_before": self.revision_before,
            "revision_after": self.revision_after,
            "params": self.params,
            "sub_ops": [s.to_dict() for s in self.sub_ops],
        }


# -- shared helpers ----------------------------------------------------------

def mint_op_id(revision_after: int) -> str:
    """The op id of the operation that makes revision `revision_after`: the
    one rule by which generate mints it and replay checks it."""
    return f"op{revision_after:04d}"


def _repository_name(fs_path: str) -> str:
    """Name of the repository an asset ref's filesystem path lies in."""
    return fs_path.strip("/").split("/")[0]


def text_param(value, what: str, name: bool = False) -> str:
    """`value`, text an operation takes from its params, when it is a line
    or, with `name`, a directory name (a repository's or a donor's); else
    raises EvogenError.  A line is a str holding no line break, so it
    renders as one line; a name is a str holding no "/" that names a
    directory of its own, so neither empty nor "." nor ".."."""
    if name:
        valid = (isinstance(value, str) and value not in ("", ".", "..")
                 and "/" not in value)
    else:
        valid = isinstance(value, str) and value.splitlines() in ([value], [])
    if not valid:
        raise EvogenError(f"{what} holds {value!r}, not a {'directory name' if name else 'line'}")
    return value


def ensure_folder_path(tree: AssetTree, base: AssetNode, segments: list[str],
                       record: OperationRecord) -> AssetNode:
    node = base
    for name in segments:
        child = node.child_named(name)
        if child is None:
            child = tree.new_node(FOLDER, name)
            node.children.append(child)
            record.add_sub("AddAsset", {
                "asset": make_asset_ref(tree, child).at_revision(
                    record.revision_after).to_text(),
                "kind": FOLDER, "name": name})
        node = child
    return node


def update_manifest_asset(tree: AssetTree, repo: AssetNode, adapter,
                          slice_dirs: list[str], record: OperationRecord) -> None:
    """Re-emit a repository's manifest file asset declaring each of
    `slice_dirs` that it does not declare yet, in order."""
    manifest_node = repo.child_named(MANIFEST_NAME)
    if manifest_node is None:
        manifest_node = tree.new_node(FILE, MANIFEST_NAME, content=[])
        repo.children.append(manifest_node)
    manifest = adapter.manifest_parse(model.flatten_lines(manifest_node))
    if not manifest.name:
        manifest.name = repo.name
    for slice_dir in slice_dirs:
        if slice_dir not in manifest.slices:
            manifest.slices.append(slice_dir)
    new_lines = adapter.manifest_emit(manifest)
    manifest_node.content = new_lines
    manifest_node.children = []
    record.add_sub("UpdateManifest", {
        "asset": make_asset_ref(tree, manifest_node).at_revision(
            record.revision_after).to_text(),
        "content": new_lines})


def _record_subtree_traces(tree: AssetTree, source: AssetNode, source_ref: AssetRef,
                           target: AssetNode, target_ref: AssetRef, op_id: str) -> None:
    """One trace for the pair, whose refs the caller holds, plus one per
    corresponding descendant."""
    src_refs, tgt_refs = (
        {n.node_id: ref.to_text() for n, ref in walk_asset_refs(top, top_ref)}
        for top, top_ref in ((source, source_ref), (target, target_ref)))
    pairs = [(source, target)]
    for src, tgt in pairs:  # breadth first: the loop reaches pairs it appends
        tree.traces.add(CloneTrace(op_id, src_refs[src.node_id],
                                   tgt_refs[tgt.node_id], src.node_id, tgt.node_id))
        pairs.extend(zip(src.children, tgt.children))


# -- RemoveFeature -----------------------------------------------------------

def apply_remove_feature(tree: AssetTree, params: dict, op_id: str,
                         adapter) -> OperationRecord:
    rev_after = tree.revision + 1
    record = OperationRecord(op_id, "RemoveFeature", dict(params),
                             tree.revision, rev_after)
    ref = FeatureRef.from_text(params["feature"])
    tree.own(_repository_name(ref.repo_path))
    repo, feature_path = resolve_feature_ref(tree, ref)
    if len(feature_path) < 2:
        raise CannotRemoveRoot(feature_path[0])

    removed_paths = repo.feature_model.paths_under(feature_path)
    _remove_children(repo, f"/{repo.name}", (), removed_paths, record)

    for node, ref in repository_refs(tree, repo,
                                     lambda n: n.mapped_features & removed_paths):
        stale = node.mapped_features & removed_paths
        node.mapped_features -= stale
        record.add_sub("RemoveMapping", {
            "asset": ref.at_revision(rev_after).to_text(),
            "features": sorted("/".join(p) for p in stale)})

    repo.feature_model.remove(feature_path)
    return record


def _remove_children(node: AssetNode, fs_path: str, index_path: tuple[int, ...],
                     removed: set[tuple[str, ...]], record: OperationRecord) -> None:
    """Drop each descendant of `node` exclusive to the features whose full
    paths `removed` holds: mapped to at least one of them and to no other.
    One preorder pass decides and drops, and does not enter a dropped
    subtree; `fs_path` and `index_path` are the parts of `node`'s ref.
    Each RemoveAsset cites the pre-state: positions count the child list as
    it was, so a dropped sibling shifts no later ref."""
    kept = []
    for position, child in enumerate(node.children):
        parts = _child_path(fs_path, index_path, child, position)
        if child.mapped_features and child.mapped_features <= removed:
            record.add_sub("RemoveAsset", {
                "asset": AssetRef(record.revision_before, *parts).to_text()})
        else:
            kept.append(child)
            _remove_children(child, *parts, removed, record)
    if len(kept) < len(node.children):
        node.children = kept


# -- MutateAsset -------------------------------------------------------------

def apply_mutate_asset(tree: AssetTree, params: dict, op_id: str,
                       adapter) -> OperationRecord:
    record = OperationRecord(op_id, "MutateAsset", dict(params),
                             tree.revision, tree.revision + 1)
    ref = AssetRef.from_text(params["target"])
    # a line edit changes one file's content: own that file's path only
    name, _, path = ref.fs_path.strip("/").partition("/")
    tree.own(name, path)
    target = resolve_asset_ref(tree, ref)
    if target.kind != FILE or target.name == MANIFEST_NAME:
        raise NotMutable(target.name)
    kind = params["mutation"]
    idx = params["line"]
    if kind not in MUTATION_KINDS:
        raise EvogenError(f"unknown mutation {kind!r}")
    if type(idx) is not int or not 0 <= idx < model.file_line_count(target):
        raise BadIndex(f"{idx!r} in {target.name}")
    if kind == DELETE_LINE:
        model.delete_line(target, idx)
    elif kind == REPLACE_LINE:
        model.replace_line(target, idx, text_param(params["donor_line"], "donor_line"))
    else:
        model.insert_line(tree, target, idx, text_param(params["donor_line"], "donor_line"))
    return record


# -- CloneVariant ------------------------------------------------------------

def apply_clone_variant(tree: AssetTree, params: dict, op_id: str,
                        adapter) -> OperationRecord:
    rev_after = tree.revision + 1
    record = OperationRecord(op_id, "CloneVariant", dict(params),
                             tree.revision, rev_after)
    source = resolve_asset_ref(tree, AssetRef.from_text(params["source"]))
    if source.kind != REPOSITORY:
        raise EvogenError("clone source must be a repository")
    new_name = text_param(params["new_name"], "new_name", name=True)
    if tree.find_repository(new_name) is not None:
        raise DuplicateRepository(new_name)
    clone = tree.deep_copy_node(source)
    clone.name = new_name
    tree.root.children.append(clone)
    _record_subtree_traces(tree, source, AssetRef(rev_after, f"/{source.name}"),
                           clone, AssetRef(rev_after, f"/{new_name}"), op_id)
    return record


# -- CloneFeature ------------------------------------------------------------

def apply_clone_feature(tree: AssetTree, params: dict, op_id: str,
                        adapter) -> OperationRecord:
    rev_after = tree.revision + 1
    record = OperationRecord(op_id, "CloneFeature", dict(params),
                             tree.revision, rev_after)
    tree.own(params.get("target_repo"))
    src_repo = tree.find_repository(params["source_repo"])
    tgt_repo = tree.find_repository(params["target_repo"])
    lineage = tree.traces.lineage
    if (src_repo is None or tgt_repo is None
            or lineage(src_repo.node_id)[-1] != lineage(tgt_repo.node_id)[-1]):
        raise UnrelatedRepositories(f"{params['source_repo']} / {params['target_repo']}")
    assert src_repo.feature_model is not None and tgt_repo.feature_model is not None

    feature_ref = FeatureRef.from_text(params["feature"])
    parent_ref = FeatureRef.from_text(params["target_parent"])
    for side, owner in ((feature_ref, src_repo), (parent_ref, tgt_repo)):
        if side.repo_path != f"/{owner.name}":
            raise EvogenError(f"{side.to_text()} is not a feature of {owner.name}")
    feature_path = lpq_to_full_path(src_repo.feature_model, feature_ref.lpq)
    feature = src_repo.feature_model.find(feature_path)
    parent_path = lpq_to_full_path(tgt_repo.feature_model, parent_ref.lpq)
    parent_feature = tgt_repo.feature_model.find(parent_path)
    if any(f.name == feature.name for f in tgt_repo.feature_model.root.iter_features()):
        raise AlreadyPresent(feature.name)

    parent_feature.children.append(feature.copy())
    target_feature_path = parent_path + (feature.name,)
    record.add_sub("AddFeature", {"feature": "/".join(target_feature_path)})

    def translate(path: tuple[str, ...]) -> tuple[str, ...]:
        return target_feature_path + path[len(feature_path):]

    cloned_paths = src_repo.feature_model.paths_under(feature_path)
    plan = params.get("plan", {})
    if not isinstance(plan, dict):
        raise EvogenError(f"plan holds {plan!r}, not a mapping")
    new_slice_dirs: list[str] = []

    # src_repo is not the target (that would be AlreadyPresent), so nothing
    # below changes it and one walk gives every ref and parent
    parents = {child.node_id: node for node in src_repo.iter_nodes()
               for child in node.children}
    for asset, ref in repository_refs(tree, src_repo,
                                      lambda n: n.mapped_features & cloned_paths):
        relevant = asset.mapped_features & cloned_paths
        mapped_paths = sorted(translate(p) for p in relevant)
        twin = tree.corresponding_asset(asset, tgt_repo)
        if twin is not None:
            twin.mapped_features |= set(mapped_paths)
            record.add_sub("AddMapping", {
                "asset": make_asset_ref(tree, twin).at_revision(rev_after).to_text(),
                "features": ["/".join(p) for p in mapped_paths]})
            continue

        src_parent = parents[asset.node_id]
        tgt_parent = tree.corresponding_asset(src_parent, tgt_repo)
        if tgt_parent is None:
            # parent chain exists only as folders (e.g. a slice directory);
            # an index path means a file lies on it
            if ref.index_path:
                raise EvogenError(f"no corresponding parent for {asset.name!r}")
            names = ref.fs_path.strip("/").split("/")[1:-1]
            tgt_parent = ensure_folder_path(tree, tgt_repo, names, record)

        src_ref = ref.to_text()
        if src_ref in plan:
            index = plan[src_ref]
            if type(index) is not int or not 0 <= index <= len(tgt_parent.children):
                raise BadIndex(f"{index!r} in {tgt_parent.name}")
        else:
            index = _default_integration_index(tree, src_parent, asset, tgt_parent, tgt_repo)
        clone = tree.deep_copy_node(asset)
        for node in clone.iter_nodes():
            node.mapped_features = set()
        clone.mapped_features = set(mapped_paths)
        tgt_parent.children.insert(index, clone)
        target = make_asset_ref(tree, clone).at_revision(rev_after)
        _record_subtree_traces(tree, asset, ref.at_revision(rev_after),
                               clone, target, op_id)
        record.add_sub("CloneAsset", {
            "source": src_ref,
            "target": target.to_text(),
            "index": index,
            "features": ["/".join(p) for p in mapped_paths]})

        # a file cloned into /<repo>/slices/<donor>/... declares that slice
        segments = target.fs_path.strip("/").split("/")
        if clone.kind == FILE and len(segments) >= 4 and segments[1] == SLICES_DIR:
            slice_dir = f"{SLICES_DIR}/{segments[2]}"
            if slice_dir not in new_slice_dirs:
                new_slice_dirs.append(slice_dir)

    _declare_slices(tree, src_repo, tgt_repo, new_slice_dirs, record, adapter, op_id, rev_after)
    return record


def _default_integration_index(tree: AssetTree, src_parent: AssetNode,
                               asset: AssetNode, tgt_parent: AssetNode,
                               tgt_repo: AssetNode) -> int:
    """Append after the last traced predecessor sibling, else append last."""
    tgt_positions = {c.node_id: i for i, c in enumerate(tgt_parent.children)}
    best = -1
    for sibling in src_parent.children:
        if sibling is asset:
            break
        twin = tree.corresponding_asset(sibling, tgt_repo)
        if twin is not None and twin.node_id in tgt_positions:
            best = max(best, tgt_positions[twin.node_id])
    return best + 1 if best >= 0 else len(tgt_parent.children)


def _declare_slices(tree: AssetTree, src_repo: AssetNode, tgt_repo: AssetNode,
                    new_slice_dirs: list[str], record: OperationRecord,
                    adapter, op_id: str, rev_after: int) -> None:
    """Make newly introduced slices buildable in the target repository."""
    if not new_slice_dirs:
        return
    manifest_node = tgt_repo.child_named(MANIFEST_NAME)
    declared = []
    if manifest_node is not None:
        declared = adapter.manifest_parse(model.flatten_lines(manifest_node)).slices
    missing = [s for s in new_slice_dirs if s not in declared]
    for slice_dir in missing:
        donor_id = slice_dir.split("/", 1)[1]
        tgt_slice = ensure_folder_path(tree, tgt_repo,
                                       [SLICES_DIR, donor_id], record)
        if tgt_slice.child_named(MANIFEST_NAME) is None:
            src_slice = src_repo.child_named(SLICES_DIR)
            src_mani = None
            if src_slice is not None and src_slice.child_named(donor_id) is not None:
                src_mani = src_slice.child_named(donor_id).child_named(MANIFEST_NAME)
            if src_mani is not None:
                clone = tree.deep_copy_node(src_mani)
                clone.mapped_features = set()
                tgt_slice.children.append(clone)
                source = make_asset_ref(tree, src_mani)
                target = make_asset_ref(tree, clone).at_revision(rev_after)
                _record_subtree_traces(tree, src_mani, source.at_revision(rev_after),
                                       clone, target, op_id)
                record.add_sub("CloneAsset", {
                    "source": source.to_text(),
                    "target": target.to_text(),
                    "index": len(tgt_slice.children) - 1,
                    "features": []})
    if missing:
        update_manifest_asset(tree, tgt_repo, adapter, missing, record)


# -- dispatch and transactions -----------------------------------------------

def execute(tree: AssetTree, kind: str, params: dict, op_id: str,
            adapter) -> OperationRecord:
    from .transplant import apply_transplant_feature
    handlers = {
        "RemoveFeature": apply_remove_feature,
        "MutateAsset": apply_mutate_asset,
        "CloneVariant": apply_clone_variant,
        "CloneFeature": apply_clone_feature,
        "TransplantFeature": apply_transplant_feature,
    }
    if kind not in handlers:
        raise EvogenError(f"unknown operation kind {kind!r}")
    return handlers[kind](tree, params, op_id, adapter=adapter)


class Committed:
    def __init__(self, record: OperationRecord, tree: AssetTree) -> None:
        self.record = record
        self.tree = tree


class RolledBack:
    def __init__(self, reason: str) -> None:
        self.reason = reason


def run_in_transaction(tree: AssetTree, kind: str, params: dict, op_id: str,
                       checker: Callable[[AssetTree], list[str]], adapter):
    """Apply a candidate on a scratch copy, gate it on the checker.

    Returns Committed (with the new tree at revision + 1) or RolledBack; the
    input tree is never touched.  The scratch copy shares every repository
    with the input tree, and each handler calls ``scratch.own`` for the
    repository it changes before it resolves any ref into it; so every
    other repository keeps its nodes and the values kept on them.  A line
    edit owns only its file's path, so the rest of its repository stays
    shared too, and the gate checks that one file again.
    """
    scratch = tree.clone()
    try:
        record = execute(scratch, kind, params, op_id, adapter=adapter)
    except EvogenError as exc:
        return RolledBack(f"{type(exc).__name__}: {exc}")
    try:
        problems = checker(scratch)
    except Exception as exc:  # checker crash or timeout
        return RolledBack(f"checkerError: {exc}")
    if problems:
        return RolledBack("; ".join(problems[:5]))
    scratch.revision += 1
    return Committed(record, scratch)
