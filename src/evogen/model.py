"""World state of a generation run: asset tree, feature models, clone traces, donors.

The asset tree holds every variant of the evolving system beneath a synthetic
root node.  Repositories, folders and files mirror the filesystem; files carry
their text either as raw leaf content or, once sub-file structure exists, as an
ordered mix of line and block child nodes.  Feature models hang off repository
nodes and assets map to features by name path within their repository's model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Iterator, Optional

from .errors import SelfTrace, UnknownFeature

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

    def paths_under(self, path: tuple[str, ...]) -> set[tuple[str, ...]]:
        """The full paths of the feature at `path` and of its descendants."""
        return {p for p in self.paths() if p[:len(path)] == path}

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
    #: values computed from a repository's subtree, valid while the node
    #: lives: no copy inherits them and ``AssetTree.own`` clears them
    derived: dict = field(default_factory=dict, compare=False, repr=False)

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
    removed = repo.feature_model.paths_under(feature_path)
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
    """Append-only store of clone traces."""

    def __init__(self) -> None:
        self.traces: list[CloneTrace] = []

    def add(self, trace: CloneTrace) -> CloneTrace:
        if trace.source_node == trace.target_node or trace.source_ref == trace.target_ref:
            raise SelfTrace(trace.source_ref)
        self.traces.append(trace)
        return trace

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

    def copy(self) -> "TraceDb":
        db = TraceDb()
        db.traces = list(self.traces)
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

    A donor holds only its scan products, which never change during a run,
    so every copy of the tree shares the same donor objects.
    """

    id: str
    manifest: ManifestModel
    files: dict[str, tuple[str, ...]]
    test_candidates: list[TestCandidate]
    module_deps: dict[str, frozenset[str]]
    external_uses: dict[str, frozenset[str]]

    def candidate(self, test_id: str) -> Optional[TestCandidate]:
        for c in self.test_candidates:
            if c.id == test_id:
                return c
        return None


# -- the tree ----------------------------------------------------------------

class AssetTree:
    def __init__(self) -> None:
        self._next_id = 1
        self.root = AssetNode(ROOT, "", node_id=0)
        self.revision = 0
        self.traces = TraceDb()
        self.donors: dict[str, DonorProject] = {}
        #: names of the repositories this tree may share with its copies; see
        #: ``clone`` and ``own``
        self.shared: set[str] = set()

    # construction

    def new_node(self, kind: str, name: str, content: Optional[list[str]] = None,
                 children: Optional[list[AssetNode]] = None) -> AssetNode:
        return AssetNode(kind, name, node_id=self._take_id(), content=content,
                         children=children or [])

    def _take_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def deep_copy_node(self, node: AssetNode) -> AssetNode:
        """Copy a subtree assigning fresh node ids (a genuine clone)."""
        return _copy_node(node, lambda _original: self._take_id())

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

    # trace-based correspondence

    def _trace_reach(self, start: int, step: Callable[[int], list[int]]) -> Iterator[int]:
        """Node ids reachable from `start` over `step` hops, `start` first,
        then nearest first."""
        seen = {start}
        queue = [start]
        for cur in queue:  # the queue grows while it is read: breadth-first
            yield cur
            for nxt in step(cur):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)

    def repositories_related(self, repo_a: AssetNode, repo_b: AssetNode) -> bool:
        """True when a chain of repository clone traces connects the two."""
        return repo_b.node_id in self._trace_reach(repo_a.node_id, self.traces.neighbors)

    def repository_descends_from(self, source: AssetNode, target: AssetNode) -> bool:
        """True when `target` was (transitively) cloned from `source`."""
        return target.node_id in self._trace_reach(source.node_id, self.traces.successors)

    def corresponding_asset(self, node: AssetNode,
                            target_repo: AssetNode) -> Optional[AssetNode]:
        """The first node on the breadth-first clone-trace walk from `node`
        that lies in `target_repo`, or None.  The walk yields `node` first,
        so a node of `target_repo` answers for itself.  None means that no
        trace chain reaches the repository: the asset postdates the
        repository clone, or the repositories are unrelated."""
        present = {n.node_id: n for n in target_repo.iter_nodes()}
        for cur in self._trace_reach(node.node_id, self.traces.neighbors):
            if cur in present:
                return present[cur]
        return None

    # copying

    def clone(self) -> "AssetTree":
        """A copy of the tree that shares every repository node with it.

        Only the root node and its child list are copied.  Afterwards both
        trees name all repositories in ``shared``.  The write rule holds for
        every tree, a clone or not: change a repository only after
        ``own(name)``, and look up every node you change anew after that
        call, since nodes found before it may belong to a shared copy.  A
        repository that is only read needs no ``own``, so the refs and
        parents that one walk of it finds stay valid while it is not owned.
        """
        twin = AssetTree.__new__(AssetTree)
        twin._next_id = self._next_id
        twin.root = AssetNode(self.root.kind, self.root.name, self.root.node_id,
                              children=list(self.root.children))
        twin.revision = self.revision
        twin.traces = self.traces.copy()
        twin.donors = dict(self.donors)
        self.shared = twin.shared = {repo.name for repo in self.repositories}
        return twin

    def own(self, name) -> None:
        """The write barrier: call it before repository `name` is changed.

        While `name` is shared (see ``clone``), the repository is replaced in
        this tree by a copy with the same node ids, so traces, refs and
        ``corresponding_asset`` still match, and the name leaves this tree's
        ``shared`` only; a copy that shares the set is not affected.  A
        repository the tree already owns is changed in place, so its
        ``derived`` values are cleared.  Any other name, a malformed one
        included, is left alone: this never raises, so a bad ref fails where
        it is resolved.
        """
        children = self.root.children
        for i, repo in enumerate(children):
            if repo.kind == REPOSITORY and repo.name == name:
                if name in self.shared:
                    children[i] = _copy_node(repo, attrgetter("node_id"))
                    self.shared = self.shared - {name}
                else:
                    repo.derived.clear()
                return


def _copy_node(node: AssetNode, node_id: Callable[[AssetNode], int]) -> AssetNode:
    """Copy a subtree, each copy numbered `node_id(original)` and with no
    ``derived`` values.  Arguments are evaluated left to right, so a parent
    is numbered before its children."""
    return AssetNode(
        node.kind, node.name, node_id(node),
        None if node.content is None else list(node.content),
        [_copy_node(c, node_id) for c in node.children],
        set(node.mapped_features),
        None if node.feature_model is None else node.feature_model.copy())

