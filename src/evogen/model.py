"""World state of a generation run: asset tree, feature models, clone traces, donors.

The asset tree holds every variant of the evolving system beneath a synthetic
root node.  Repositories, folders and files mirror the filesystem; files carry
their text either as raw leaf content or, once sub-file structure exists, as an
ordered mix of line and block child nodes.  Feature models hang off repository
nodes and assets map to features by name path within their repository's model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .errors import SelfTrace, UnknownFeature, UnrelatedRepositories

ROOT = "root"
REPOSITORY = "repository"
FOLDER = "folder"
FILE = "file"
BLOCK = "block"
LINE = "line"

#: kinds addressable by filesystem path
FS_KINDS = frozenset({ROOT, REPOSITORY, FOLDER, FILE})

#: name of the manifest file inside repositories, donors and slices
MANIFEST_NAME = "project.manifest"


@dataclass
class Feature:
    """One node of a feature hierarchy; sibling names are unique."""

    name: str
    origin: str = ""
    children: list["Feature"] = field(default_factory=list)

    def copy(self) -> "Feature":
        return Feature(self.name, self.origin, [c.copy() for c in self.children])

    def iter_features(self) -> Iterator["Feature"]:
        yield self
        for child in self.children:
            yield from child.iter_features()

    def child(self, name: str) -> Optional["Feature"]:
        for c in self.children:
            if c.name == name:
                return c
        return None


@dataclass
class FeatureModel:
    root: Feature

    def copy(self) -> "FeatureModel":
        return FeatureModel(self.root.copy())

    def find(self, path: tuple[str, ...]) -> Optional[Feature]:
        """Resolve a full name path starting at the root feature."""
        if not path or path[0] != self.root.name:
            return None
        node = self.root
        for name in path[1:]:
            node = node.child(name)
            if node is None:
                return None
        return node

    def paths(self) -> list[tuple[str, ...]]:
        out: list[tuple[str, ...]] = []

        def walk(feature: Feature, prefix: tuple[str, ...]) -> None:
            path = prefix + (feature.name,)
            out.append(path)
            for child in feature.children:
                walk(child, path)

        walk(self.root, ())
        return out

    def remove(self, path: tuple[str, ...]) -> Feature:
        """Detach the feature at `path` (and with it its subtree)."""
        if len(path) < 2:
            raise UnknownFeature(f"cannot remove model root {path!r}")
        parent = self.find(path[:-1])
        target = self.find(path)
        if parent is None or target is None:
            raise UnknownFeature("/".join(path))
        parent.children.remove(target)
        return target


@dataclass
class AssetNode:
    kind: str
    name: str
    node_id: int
    content: Optional[list[str]] = None
    children: list["AssetNode"] = field(default_factory=list)
    mapped_features: set[tuple[str, ...]] = field(default_factory=set)
    feature_model: Optional[FeatureModel] = None

    def iter_nodes(self) -> Iterator["AssetNode"]:
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def child_named(self, name: str) -> Optional["AssetNode"]:
        for c in self.children:
            if c.name == name:
                return c
        return None


def flatten_lines(node: AssetNode) -> list[str]:
    """Physical text lines of a file (or block), in serialization order."""
    if node.kind == LINE:
        return list(node.content or [])
    if node.content is not None:
        return list(node.content)
    out: list[str] = []
    for child in node.children:
        out.extend(flatten_lines(child))
    return out


def file_line_count(node: AssetNode) -> int:
    return len(flatten_lines(node))


def structurally_equal(a: AssetNode, b: AssetNode) -> bool:
    """Node-for-node equality over (kind, name, content, child order) plus
    feature mappings and models; node ids are deliberately ignored."""
    if (a.kind, a.name, a.content) != (b.kind, b.name, b.content):
        return False
    if a.mapped_features != b.mapped_features:
        return False
    if (a.feature_model is None) != (b.feature_model is None):
        return False
    if a.feature_model is not None and b.feature_model is not None:
        if a.feature_model.paths() != b.feature_model.paths():
            return False
    if len(a.children) != len(b.children):
        return False
    return all(structurally_equal(x, y) for x, y in zip(a.children, b.children))


# -- line-level edits over possibly structured files -------------------------

def _locate_line(node: AssetNode, idx: int):
    """Find (parent, child_position, offset_inside) of the flat line `idx`.

    Returns (parent_node, position) where parent.children[position] is the
    LINE node holding the flat index, or for leaf files (file_node, idx).
    """
    if node.content is not None:
        return node, idx
    seen = 0
    for pos, child in enumerate(node.children):
        n = file_line_count(child) if child.kind != LINE else 1
        if idx < seen + n:
            if child.kind == LINE:
                return node, pos
            return _locate_line(child, idx - seen)
        seen += n
    raise IndexError(idx)


def delete_line(node: AssetNode, idx: int) -> str:
    parent, pos = _locate_line(node, idx)
    if parent.content is not None:
        return parent.content.pop(pos)
    removed = parent.children.pop(pos)
    return (removed.content or [""])[0]


def replace_line(node: AssetNode, idx: int, text: str) -> str:
    parent, pos = _locate_line(node, idx)
    if parent.content is not None:
        old = parent.content[pos]
        parent.content[pos] = text
        return old
    line = parent.children[pos]
    old = (line.content or [""])[0]
    line.content = [text]
    return old


def insert_line(tree: "AssetTree", node: AssetNode, idx: int, text: str) -> None:
    """Insert `text` before flat line `idx` of a file."""
    parent, pos = _locate_line(node, idx)
    if parent.content is not None:
        parent.content.insert(pos, text)
    else:
        parent.children.insert(pos, tree.new_node(LINE, "", content=[text]))


def explode_file(tree: "AssetTree", node: AssetNode) -> None:
    """Turn a leaf file into one LINE child per physical line."""
    if node.content is None:
        return
    node.children = [tree.new_node(LINE, "", content=[text]) for text in node.content]
    node.content = None


def insert_nodes_at_flat_index(node: AssetNode, idx: int,
                               new_nodes: list[AssetNode]) -> None:
    """Insert sub-file nodes so they materialize before flat line `idx`.

    Descends into an existing block when the index falls strictly inside it;
    otherwise inserts at this level, before the child starting at `idx`.
    """
    assert node.content is None, "file must be exploded first"
    seen = 0
    for pos, child in enumerate(node.children):
        n = 1 if child.kind == LINE else file_line_count(child)
        if idx == seen:
            node.children[pos:pos] = new_nodes
            return
        if idx < seen + n:
            if child.kind == LINE:
                raise IndexError(idx)
            insert_nodes_at_flat_index(child, idx - seen, new_nodes)
            return
        seen += n
    if idx == seen:
        node.children.extend(new_nodes)
        return
    raise IndexError(idx)


# -- feature queries ---------------------------------------------------------

def feature_exclusive_assets(repo: AssetNode,
                             feature_path: tuple[str, ...]) -> list[AssetNode]:
    """Assets of `repo` mapped only to the feature at `feature_path` or its
    descendants (and mapped to at least one of them)."""
    if repo.feature_model is None or repo.feature_model.find(feature_path) is None:
        raise UnknownFeature("/".join(feature_path))
    removed = {p for p in repo.feature_model.paths()
               if p[:len(feature_path)] == feature_path}
    out = []
    for node in repo.iter_nodes():
        if node.mapped_features and node.mapped_features <= removed:
            out.append(node)
    return out


# -- clone traces ------------------------------------------------------------

@dataclass(frozen=True)
class CloneTrace:
    op_id: str
    source_ref: str
    target_ref: str
    source_node: int
    target_node: int


class TraceDb:
    """Append-only store of clone traces plus removal tombstones."""

    def __init__(self) -> None:
        self.traces: list[CloneTrace] = []
        self.tombstones: dict[int, int] = {}  # node id -> revision removed at

    def add(self, trace: CloneTrace) -> CloneTrace:
        if trace.source_node == trace.target_node or trace.source_ref == trace.target_ref:
            raise SelfTrace(trace.source_ref)
        self.traces.append(trace)
        return trace

    def by_op(self, op_id: str) -> list[CloneTrace]:
        return [t for t in self.traces if t.op_id == op_id]

    def by_source(self, node_id: int) -> list[CloneTrace]:
        return [t for t in self.traces if t.source_node == node_id]

    def by_target(self, node_id: int) -> list[CloneTrace]:
        return [t for t in self.traces if t.target_node == node_id]

    def neighbors(self, node_id: int) -> list[int]:
        out = []
        for t in self.traces:
            if t.source_node == node_id:
                out.append(t.target_node)
            elif t.target_node == node_id:
                out.append(t.source_node)
        return out

    def successors(self, node_id: int) -> list[int]:
        return [t.target_node for t in self.traces if t.source_node == node_id]

    def tombstone(self, node_id: int, revision: int) -> None:
        self.tombstones.setdefault(node_id, revision)

    def copy(self) -> "TraceDb":
        db = TraceDb()
        db.traces = list(self.traces)
        db.tombstones = dict(self.tombstones)
        return db


# -- donors ------------------------------------------------------------------

@dataclass
class ManifestModel:
    """Build-file abstraction: a name, external deps, local slice dirs and
    any adapter-specific extras (dropped by adaptation)."""

    name: str
    deps: list[str] = field(default_factory=list)
    slices: list[str] = field(default_factory=list)
    extras: dict[str, str] = field(default_factory=dict)

    def copy(self) -> "ManifestModel":
        return ManifestModel(self.name, list(self.deps), list(self.slices),
                             dict(self.extras))


@dataclass
class TestCandidate:
    id: str
    file: str  # donor-relative path of the defining file
    name: str
    marker_line: int
    body_start: int
    body_end: int  # inclusive
    imports: list[str]
    modular: bool


@dataclass
class DonorProject:
    """External project features are transplanted from.

    The scan products (`files`, `test_candidates`, `module_deps`,
    `external_uses`) are immutable for a run and shared between tree copies;
    only the per-repository inclusion state is copied.
    """

    id: str
    root_path: str
    manifest: ManifestModel
    files: dict[str, tuple[str, ...]]
    test_candidates: list[TestCandidate]
    module_deps: dict[str, frozenset[str]]
    external_uses: dict[str, frozenset[str]]
    included_in: dict[str, set[str]] = field(default_factory=dict)

    def candidate(self, test_id: str) -> Optional[TestCandidate]:
        for c in self.test_candidates:
            if c.id == test_id:
                return c
        return None

    def clone(self) -> "DonorProject":
        twin = DonorProject(self.id, self.root_path, self.manifest, self.files,
                            self.test_candidates, self.module_deps,
                            self.external_uses)
        twin.included_in = {k: set(v) for k, v in self.included_in.items()}
        return twin


# -- the tree ----------------------------------------------------------------

class AssetTree:
    def __init__(self) -> None:
        self._next_id = 1
        self.root = AssetNode(ROOT, "", node_id=0)
        self.revision = 0
        self.traces = TraceDb()
        self.donors: dict[str, DonorProject] = {}

    # construction

    def new_node(self, kind: str, name: str, content: Optional[list[str]] = None,
                 children: Optional[list[AssetNode]] = None) -> AssetNode:
        node = AssetNode(kind, name, node_id=self._next_id, content=content,
                         children=children or [])
        self._next_id += 1
        return node

    def deep_copy_node(self, node: AssetNode) -> AssetNode:
        """Copy a subtree assigning fresh node ids (a genuine clone)."""
        twin = self.new_node(node.kind, node.name,
                             content=list(node.content) if node.content is not None else None)
        twin.mapped_features = set(node.mapped_features)
        if node.feature_model is not None:
            twin.feature_model = node.feature_model.copy()
        twin.children = [self.deep_copy_node(c) for c in node.children]
        return twin

    # traversal

    @property
    def repositories(self) -> list[AssetNode]:
        return [c for c in self.root.children if c.kind == REPOSITORY]

    def find_repository(self, name: str) -> Optional[AssetNode]:
        for repo in self.repositories:
            if repo.name == name:
                return repo
        return None

    def path_to(self, node: AssetNode) -> Optional[list[AssetNode]]:
        """Ancestor chain from root to `node` (inclusive), or None."""

        def walk(cur: AssetNode, trail: list[AssetNode]):
            trail.append(cur)
            if cur is node:
                return True
            for child in cur.children:
                if walk(child, trail):
                    return True
            trail.pop()
            return False

        trail: list[AssetNode] = []
        return trail if walk(self.root, trail) else None

    def contains(self, node: AssetNode) -> bool:
        return self.path_to(node) is not None

    def repository_of(self, node: AssetNode) -> Optional[AssetNode]:
        trail = self.path_to(node)
        if not trail:
            return None
        for anc in trail:
            if anc.kind == REPOSITORY:
                return anc
        return None

    def iter_files(self) -> Iterator[AssetNode]:
        for node in self.root.iter_nodes():
            if node.kind == FILE:
                yield node

    # trace-based correspondence

    def repositories_related(self, repo_a: AssetNode, repo_b: AssetNode) -> bool:
        """True when a chain of repository clone traces connects the two."""
        seen = {repo_a.node_id}
        frontier = [repo_a.node_id]
        while frontier:
            cur = frontier.pop()
            if cur == repo_b.node_id:
                return True
            for nxt in self.traces.neighbors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def repository_descends_from(self, source: AssetNode, target: AssetNode) -> bool:
        """True when `target` was (transitively) cloned from `source`."""
        seen = {source.node_id}
        frontier = [source.node_id]
        while frontier:
            cur = frontier.pop()
            if cur == target.node_id:
                return cur != source.node_id or source is target
            for nxt in self.traces.successors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    def corresponding_asset(self, node: AssetNode,
                            target_repo: AssetNode) -> Optional[AssetNode]:
        """The asset in `target_repo` linked to `node` by a clone-trace chain,
        or None when the asset postdates the repository clone."""
        source_repo = self.repository_of(node)
        if source_repo is None or not self.repositories_related(source_repo, target_repo):
            raise UnrelatedRepositories(
                f"{source_repo.name if source_repo else '?'} / {target_repo.name}")
        if source_repo is target_repo:
            return node
        present = {n.node_id: n for n in target_repo.iter_nodes()}
        seen = {node.node_id}
        frontier = [node.node_id]
        while frontier:
            cur = frontier.pop(0)
            if cur in present:
                return present[cur]
            for nxt in self.traces.neighbors(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return None

    # copying

    def clone(self) -> "AssetTree":
        twin = AssetTree.__new__(AssetTree)
        twin._next_id = self._next_id
        twin.root = _copy_node_keep_ids(self.root)
        twin.revision = self.revision
        twin.traces = self.traces.copy()
        twin.donors = {k: d.clone() for k, d in self.donors.items()}
        return twin


def _copy_node_keep_ids(node: AssetNode) -> AssetNode:
    twin = AssetNode(node.kind, node.name, node.node_id,
                     content=list(node.content) if node.content is not None else None)
    twin.mapped_features = set(node.mapped_features)
    if node.feature_model is not None:
        twin.feature_model = node.feature_model.copy()
    twin.children = [_copy_node_keep_ids(c) for c in node.children]
    return twin


def _feature_to_dict(feature: Feature) -> dict:
    return {"name": feature.name, "origin": feature.origin,
            "children": [_feature_to_dict(c) for c in feature.children]}
