"""World state of a generation run: asset tree, feature models, clone traces,
and the donor projects the run transplants from.

The asset tree holds every variant of the evolving system beneath a synthetic
root node.  Repositories, folders and files mirror the filesystem; files carry
their text either as raw leaf content or, once sub-file structure exists, as an
ordered mix of line and block child nodes.  Feature models hang off repository
nodes and assets map to features by name path within their repository's model.
"""

from __future__ import annotations

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


class Value:
    """A value type: it equals an instance of its class whose attributes
    are equal, and hashes and prints as its attributes.  Trees, features
    and records are no value types: they compare by identity."""

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Feature:
    """One node of a feature hierarchy; sibling names are unique."""

    def __init__(self, name: str, origin: str = "",
                 children: Optional[list["Feature"]] = None) -> None:
        self.name = name
        self.origin = origin
        self.children = [] if children is None else children

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


class FeatureModel:
    def __init__(self, root: Feature) -> None:
        self.root = root

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

    def walk(self) -> list[tuple[tuple[str, ...], Feature]]:
        """(full path, feature) for every feature, in preorder: the root
        first, each feature before its children, siblings in order.  The
        path is carried down, so no feature is searched for."""
        out: list[tuple[tuple[str, ...], Feature]] = []

        def visit(feature: Feature, prefix: tuple[str, ...]) -> None:
            path = prefix + (feature.name,)
            out.append((path, feature))
            for child in feature.children:
                visit(child, path)

        visit(self.root, ())
        return out

    def paths(self) -> list[tuple[str, ...]]:
        """The full path of every feature, in the order of ``walk``."""
        return [path for path, _ in self.walk()]

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


class AssetNode:
    def __init__(self, kind: str, name: str, node_id: int,
                 content: Optional[list[str]] = None,
                 children: Optional[list["AssetNode"]] = None,
                 mapped_features: Optional[set[tuple[str, ...]]] = None,
                 feature_model: Optional[FeatureModel] = None) -> None:
        self.kind = kind
        self.name = name
        self.node_id = node_id
        self.content = content
        self.children = [] if children is None else children
        self.mapped_features = set() if mapped_features is None else mapped_features
        self.feature_model = feature_model
        #: values computed from a repository's subtree and kept on its node:
        #: ``files`` (its render), ``context`` and ``sources`` (what its
        #: manifests and source paths tell the check, and each source's
        #: problems), ``problems`` and ``fragment`` (its feature-state text).
        #: ``edited`` names the files whose entries of ``files`` an edit made
        #: stale.  ``_copy_node`` keeps none of them; ``AssetTree.own`` keeps
        #: those that ``_carried`` says the change leaves valid
        self.derived: dict = {}

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

def nonroot_features(tree: "AssetTree") -> Iterator[tuple[AssetNode, Feature]]:
    """(repository, feature) for every feature but a model's root: the
    repositories in order, each model's features in preorder."""
    for repo in tree.repositories:
        if repo.feature_model is None:
            continue
        for feature in repo.feature_model.root.iter_features():
            if feature is not repo.feature_model.root:
                yield repo, feature


# -- clone traces ------------------------------------------------------------

class CloneTrace(Value):
    def __init__(self, op_id: str, source_ref: str, target_ref: str,
                 source_node: int, target_node: int) -> None:
        self.op_id = op_id
        self.source_ref = source_ref
        self.target_ref = target_ref
        self.source_node = source_node
        self.target_node = target_node


class TraceDb:
    """Append-only store of clone traces, with ``source`` beside the list:
    each trace's target node id -> its source node id.

    The traces form a forest, on two invariants: every trace targets a node
    made for it, so no node is the target of two traces and ``source`` holds
    one entry per trace; and no repository holds two nodes of one lineage
    (see ``lineage``).  Stores made by ``AssetTree.clone`` hold one list and
    one map until either adds to them: its first add copies both."""

    def __init__(self) -> None:
        self.traces: list[CloneTrace] = []
        self.source: dict[int, int] = {}
        #: True while another store may hold ``traces`` and ``source``
        self._shared = False

    def add(self, trace: CloneTrace) -> CloneTrace:
        if trace.source_node == trace.target_node or trace.source_ref == trace.target_ref:
            raise SelfTrace(trace.source_ref)
        if self._shared:
            self.traces = list(self.traces)
            self.source = dict(self.source)
            self._shared = False
        self.traces.append(trace)
        self.source[trace.target_node] = trace.source_node
        return trace

    def lineage(self, node_id: int) -> list[int]:
        """[`node_id`, its source, its source's source, ...]; the last is
        the root of the node's lineage, a node no trace targets."""
        chain = [node_id]
        while chain[-1] in self.source:
            chain.append(self.source[chain[-1]])
        return chain

    def share(self) -> "TraceDb":
        """A store holding this store's list and map; each copies them on
        its next add."""
        twin = TraceDb()
        twin.traces, twin.source = self.traces, self.source
        self._shared = twin._shared = True
        return twin


# -- donors ------------------------------------------------------------------

class ManifestModel(Value):
    """Build-file abstraction: a name, external deps, local slice dirs and
    any adapter-specific extras (dropped by adaptation)."""

    def __init__(self, name: str, deps: Optional[list[str]] = None,
                 slices: Optional[list[str]] = None,
                 extras: Optional[dict[str, str]] = None) -> None:
        self.name = name
        self.deps = [] if deps is None else deps
        self.slices = [] if slices is None else slices
        self.extras = {} if extras is None else extras


class TestCandidate(Value):
    def __init__(self, id: str, file: str, name: str, marker_line: int,
                 body_start: int, body_end: int, imports: list[str],
                 modular: bool) -> None:
        self.id = id
        self.file = file  # donor-relative path of the defining file
        self.name = name
        self.marker_line = marker_line
        self.body_start = body_start
        self.body_end = body_end  # inclusive
        self.imports = imports
        self.modular = modular


class DonorProject(Value):
    """External project features are transplanted from.

    A donor holds only its scan products, which never change during a run:
    it is an input of the transplant draw, not a part of the tree.
    """

    def __init__(self, id: str, manifest: ManifestModel,
                 files: dict[str, tuple[str, ...]],
                 test_candidates: list[TestCandidate], modules: dict[str, str],
                 module_deps: dict[str, frozenset[str]],
                 external_uses: dict[str, frozenset[str]]) -> None:
        self.id = id
        self.manifest = manifest
        self.files = files
        self.test_candidates = test_candidates
        #: module name -> donor path of its source file
        self.modules = modules
        self.module_deps = module_deps
        self.external_uses = external_uses

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

    def corresponding_asset(self, node: AssetNode,
                            target_repo: AssetNode) -> Optional[AssetNode]:
        """The node of `target_repo` whose lineage root (see
        ``TraceDb.lineage``) is `node`'s, so `node` itself when `target_repo`
        holds it; no repository holds two such nodes.  None means that no
        node of `target_repo` shares the lineage: the asset postdates the
        repository clone, or the repositories are unrelated."""
        root = self.traces.lineage(node.node_id)[-1]
        for candidate in target_repo.iter_nodes():
            if self.traces.lineage(candidate.node_id)[-1] == root:
                return candidate
        return None

    # copying

    def clone(self) -> "AssetTree":
        """A copy of the tree that shares every repository node and the trace
        store with it.

        Only the root node and its child list are copied; the trace list and
        map are copied by the first ``TraceDb.add`` on either side.
        Afterwards both trees name all repositories in ``shared``.  The write
        rule holds for
        every tree, a clone or not: change a repository only after ``own``,
        and look up every node you change anew after that call, since nodes
        found before it may belong to a shared copy.  After ``own(name)``
        any node of the repository may change; after ``own(name, path)``
        only the content of the file at `path`: its lines and its sub-file
        nodes.  A repository that is only read needs no ``own``, so the refs
        and parents that one walk of it finds stay valid while it is not
        owned.
        """
        twin = AssetTree.__new__(AssetTree)
        twin._next_id = self._next_id
        twin.root = AssetNode(self.root.kind, self.root.name, self.root.node_id,
                              children=list(self.root.children))
        twin.revision = self.revision
        twin.traces = self.traces.share()
        self.shared = twin.shared = {repo.name for repo in self.repositories}
        return twin

    def own(self, name, path: Optional[str] = None) -> None:
        """The write barrier: call it before repository `name` is changed.

        While `name` is shared (see ``clone``), the repository is replaced in
        this tree by a copy with the same node ids, so traces, refs and
        ``corresponding_asset`` still match.  Without `path` the copy is
        whole, and the name leaves this tree's ``shared`` only; a copy that
        shares the set is not affected.  With `path`, a repository-relative
        file path such as ``src/a.mini`` that names one file other than a
        manifest, only the repository node, the folders on the path and the
        file's subtree are copied, every other node stays shared, and so
        does the name.  A repository the tree does not share is changed in
        place.  Either way the repository keeps the ``derived`` values that
        ``_carried`` says the change leaves valid.  A `path` that names no
        such file owns the whole repository.  Any other name, a malformed one
        included, is left alone: this never raises, so a bad ref fails where
        it is resolved.
        """
        children = self.root.children
        for i, repo in enumerate(children):
            if repo.kind == REPOSITORY and repo.name == name:
                trail = None if path is None else _file_trail(repo, path)
                if name not in self.shared:
                    repo.derived = _carried(repo.derived, path,
                                            trail[-1][1] if trail else None)
                elif trail:
                    children[i] = _copy_path(repo, path, trail)
                else:
                    children[i] = _copy_node(repo, attrgetter("node_id"))
                    self.shared = self.shared - {name}
                return


def _file_trail(repo: AssetNode, path: str) -> Optional[list[tuple[int, AssetNode]]]:
    """(position, node) of each node below `repo` on the repository-relative
    `path`, found as ``refs.resolve_asset_ref`` finds them, when the path
    names a file other than a manifest and each of its names is one child's
    only; else None."""
    trail, node = [], repo
    for name in path.split("/"):
        found = [(i, c) for i, c in enumerate(node.children) if c.name == name]
        if len(found) != 1 or found[0][1].kind not in FS_KINDS:
            return None
        trail.append(found[0])
        node = found[0][1]
    return trail if node.kind == FILE and node.name != MANIFEST_NAME else None


def _copy_path(repo: AssetNode, path: str,
               trail: list[tuple[int, AssetNode]]) -> AssetNode:
    """A copy of `repo` that shares every node with it except the nodes on
    `trail` (see ``_file_trail``) and the file's subtree, each copy numbered
    as its original; the copy keeps the values ``_carried`` keeps."""
    top = node = _copy_one(repo)
    for position, child in trail[:-1]:
        node.children[position] = node = _copy_one(child)
    position, file = trail[-1]
    node.children[position] = file = _copy_node(file, attrgetter("node_id"))
    top.derived = _carried(repo.derived, path, file)
    return top


def _copy_one(node: AssetNode) -> AssetNode:
    """A copy of one node with its child list, sharing the children and the
    feature model."""
    return AssetNode(node.kind, node.name, node.node_id, None, list(node.children),
                     set(node.mapped_features), node.feature_model)


def _carried(derived: dict, path: Optional[str] = None,
             file: Optional[AssetNode] = None) -> dict:
    """The carry rule: the ``derived`` values of a repository that remain
    valid when the content of its `file`, at the repository-relative `path`,
    changes, and no other node does.  Without a file, no value remains.

    A content edit adds, removes and renames no file, and the file is no
    manifest, so the check context stays, and every source's problems but
    the file's own.  The render stays with the file's entry marked
    ``edited``; the repository's problem list goes.  The fragment stays
    when no sub-file node of the file is mapped, since an edit shifts index
    paths only inside the file."""
    if file is None:
        return {}
    kept = {key: derived[key] for key in ("context", "fragment") if key in derived}
    if "files" in derived:
        kept["files"] = derived["files"]
        kept["edited"] = {**derived.get("edited", {}), path: file}
    if "sources" in derived:
        kept["sources"] = {p: v for p, v in derived["sources"].items() if p != path}
    if "fragment" in kept and any(n.mapped_features for n in file.iter_nodes()
                                  if n is not file):
        del kept["fragment"]
    return kept


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
