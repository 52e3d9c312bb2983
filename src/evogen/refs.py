"""Replayable references: filepath + index path for assets, LPQ for features.

Textual forms (these exact strings appear in the ledger):
  asset:   ``<revision>:<filesystemPath>#<i0.i1...>``  (``#...`` omitted when
           the index path is empty)
  feature: ``<repoPath>!<lpq>``
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .errors import DanglingRef, EvogenError, NotInTree, StaleRef, UnknownFeature
from .model import FS_KINDS, AssetNode, AssetTree, Feature, FeatureModel, Value


class AssetRef(Value):
    def __init__(self, revision: int, fs_path: str,
                 index_path: tuple[int, ...] = ()) -> None:
        self.revision = revision
        self.fs_path = fs_path  # forward-slash path from the synthetic root; root is "/"
        self.index_path = index_path

    def to_text(self) -> str:
        text = f"{self.revision}:{self.fs_path}"
        if self.index_path:
            text += "#" + ".".join(str(i) for i in self.index_path)
        return text

    @classmethod
    def from_text(cls, text: str) -> "AssetRef":
        rev_part, _, rest = text.partition(":")
        path, _, idx = rest.partition("#")
        index_path = tuple(int(i) for i in idx.split(".")) if idx else ()
        return cls(int(rev_part), path, index_path)

    def at_revision(self, revision: int) -> "AssetRef":
        return AssetRef(revision, self.fs_path, self.index_path)


class FeatureRef(Value):
    def __init__(self, repo_path: str, lpq: tuple[str, ...]) -> None:
        self.repo_path = repo_path
        self.lpq = lpq

    def to_text(self) -> str:
        return f"{self.repo_path}!{'/'.join(self.lpq)}"

    @classmethod
    def from_text(cls, text: str) -> "FeatureRef":
        repo, _, lpq = text.partition("!")
        return cls(repo, tuple(lpq.split("/")))


def check_ref_name(name: str, what: str, stop: str = "#") -> None:
    """Raise EvogenError naming `what` when `name`, which a ref's text holds,
    holds `stop`: "#" ends an asset ref's path, "!" a feature ref's repository."""
    if stop in name:
        raise EvogenError(f"{what} holds {stop!r}, which a ref cannot carry")


def _child_path(fs_path: str, index_path: tuple[int, ...], child: AssetNode,
                position: int) -> tuple[str, tuple[int, ...]]:
    """Ref parts of `child`, found at `position` among the children of the
    node whose ref parts are `fs_path` and `index_path`: an FS-kind child
    extends the filesystem path while the index path is empty; any other
    child appends its position."""
    if child.kind in FS_KINDS and not index_path:
        return ("" if fs_path == "/" else fs_path) + "/" + child.name, index_path
    return fs_path, index_path + (position,)


def make_asset_ref(tree: AssetTree, node: AssetNode) -> AssetRef:
    trail = tree.path_to(node)
    if trail is None:
        raise NotInTree(node.name)
    fs_path, index_path = "/", ()
    for parent, child in zip(trail, trail[1:]):
        fs_path, index_path = _child_path(fs_path, index_path, child,
                                          parent.children.index(child))
    return AssetRef(tree.revision, fs_path, index_path)


def walk_asset_refs(node: AssetNode, ref: AssetRef,
                    select: Optional[Callable[[AssetNode], object]] = None
                    ) -> Iterator[tuple[AssetNode, AssetRef]]:
    """(node, ref) for `node`, whose ref is `ref`, and for every descendant,
    parents first and children in order, as ``AssetNode.iter_nodes`` visits
    them; with `select`, only for the nodes it accepts.  The path is carried
    down, so no node is searched for, and a leaf that is not selected costs
    no ref."""
    stack = [(node, ref.fs_path, ref.index_path)]
    while stack:
        node, fs_path, index_path = stack.pop()
        if select is None or select(node):
            yield node, AssetRef(ref.revision, fs_path, index_path)
        children = node.children
        for position in range(len(children) - 1, -1, -1):
            child = children[position]
            if child.children or select is None or select(child):
                stack.append((child, *_child_path(fs_path, index_path, child, position)))


def repository_refs(tree: AssetTree, repo: AssetNode,
                    select: Optional[Callable[[AssetNode], object]] = None
                    ) -> Iterator[tuple[AssetNode, AssetRef]]:
    """``walk_asset_refs`` over a repository, a child of the root."""
    return walk_asset_refs(repo, AssetRef(tree.revision, f"/{repo.name}"), select)


def resolve_asset_ref(tree: AssetTree, ref: AssetRef) -> AssetNode:
    if ref.revision != tree.revision:
        raise StaleRef(f"{ref.to_text()} against revision {tree.revision}")
    node = tree.root
    if ref.fs_path != "/":
        for segment in ref.fs_path.strip("/").split("/"):
            node = node.child_named(segment)
            if node is None or node.kind not in FS_KINDS:
                raise DanglingRef(ref.to_text())
    for idx in ref.index_path:
        if idx >= len(node.children):
            raise DanglingRef(ref.to_text())
        node = node.children[idx]
    return node


def make_feature_lpq(model: FeatureModel, feature: Feature) -> tuple[str, ...]:
    """Shortest name-path suffix identifying `feature` uniquely in `model`."""
    pairs = model.walk()
    target = next((path for path, f in pairs if f is feature), None)
    if target is None:
        raise UnknownFeature(feature.name)
    for k in range(1, len(target) + 1):
        suffix = target[-k:]
        if sum(1 for p, _ in pairs if p[-k:] == suffix) == 1:
            return suffix
    return target


def lpq_to_full_path(model: FeatureModel, lpq: tuple[str, ...]) -> tuple[str, ...]:
    matches = [p for p in model.paths() if p[-len(lpq):] == lpq]
    if len(matches) != 1:
        raise UnknownFeature("/".join(lpq))
    return matches[0]


def make_feature_ref(repo: AssetNode, feature: Feature) -> FeatureRef:
    assert repo.feature_model is not None
    return FeatureRef(f"/{repo.name}", make_feature_lpq(repo.feature_model, feature))


def resolve_feature_ref(tree: AssetTree,
                        ref: FeatureRef) -> tuple[AssetNode, tuple[str, ...]]:
    """The repository `ref` names and the full path of its feature: the one
    path of the repository's model that ends in the ref's LPQ.  Raises
    UnknownFeature when the repository has no model, or when no path or
    more than one ends in the LPQ."""
    repo = resolve_asset_ref(tree, AssetRef(tree.revision, ref.repo_path))
    if repo.feature_model is None:
        raise UnknownFeature(ref.to_text())
    return repo, lpq_to_full_path(repo.feature_model, ref.lpq)
