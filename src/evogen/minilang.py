"""Bundled toy-language adapter.

Minilang keeps desk-scale runs free of external toolchains while exercising
every language-specific hook the engine needs:

* source files end in ``.mini``; structure is brace-delimited (``{`` / ``}``)
* ``import a.b.c`` declares a dependency on module ``a.b.c`` (file ``a/b/c.mini``)
* ``def <name> {`` opens a named definition block
* ``@test`` on its own line marks the next brace-delimited ``test <name> {``
  block as a test case
* failure isolation wraps lines in a ``guard { ... }`` block
* the manifest is a ``project.manifest`` file of ``key: value`` lines with the
  keys ``name``, ``deps``, ``slices``, ``srcdir``, ``testdir``
"""

from __future__ import annotations

import re
from operator import attrgetter
from pathlib import Path
from typing import Optional, Sequence

from .errors import ManifestParseError, utf8_text
from .history import Snapshot, _read_snapshot, _repo_files
from .model import MANIFEST_NAME, AssetTree, ManifestModel, TestCandidate

SOURCE_SUFFIX = ".mini"

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class MinilangAdapter:
    """Language adapter contract implementation for minilang."""

    name = "minilang"

    # -- basic lexical helpers ------------------------------------------

    def is_source_file(self, filename: str) -> bool:
        return filename.endswith(SOURCE_SUFFIX)

    def is_import(self, line: str) -> bool:
        return line.strip().startswith("import ")

    def import_module(self, line: str) -> str:
        return line.strip()[len("import "):].strip()

    def scan_imports(self, lines: list[str]) -> list[str]:
        return [ln.strip() for ln in lines if self.is_import(ln)]

    def module_to_relpath(self, module: str) -> str:
        return module.replace(".", "/") + SOURCE_SUFFIX

    def relpath_to_module(self, relpath: str) -> str:
        return relpath[:-len(SOURCE_SUFFIX)].replace("/", ".")

    # -- structure -------------------------------------------------------

    def defined_symbols(self, lines: list[str]) -> set[str]:
        out = set()
        for line in lines:
            stripped = line.strip()
            if stripped.startswith("def ") and stripped.endswith("{"):
                name = stripped[len("def "):-1].strip()
                if name:
                    out.add(name)
        return out

    def symbol_scan(self, body_lines: list[str]) -> set[str]:
        """All identifiers referenced in a test body."""
        out: set[str] = set()
        for line in body_lines:
            out.update(_IDENT.findall(line))
        return out

    def scan_tests(self, relpath: str, lines: list[str]) -> list[TestCandidate]:
        """Annotated test blocks of one file, in line order."""
        imports = self.scan_imports(lines)
        import_modules = {self.import_module(ln) for ln in imports}
        defs = self.defined_symbols(lines)
        candidates = []
        for i, line in enumerate(lines):
            if line.strip() != "@test" or i + 1 >= len(lines):
                continue
            header = lines[i + 1].strip()
            if not (header.startswith("test ") and header.endswith("{")):
                continue
            name = header[len("test "):-1].strip()
            end = self._matching_close(lines, i + 1)
            if end is None or not name:
                continue
            body = lines[i + 1:end + 1]
            referenced = self.symbol_scan(body)
            local_refs = (referenced & defs) - import_modules
            candidates.append(TestCandidate(
                id=f"{relpath}:{i}",
                file=relpath,
                name=name,
                marker_line=i,
                body_start=i + 1,
                body_end=end,
                imports=list(imports),
                modular=not local_refs,
            ))
        return candidates

    def _matching_close(self, lines: list[str], open_idx: int):
        depth = 0
        for j in range(open_idx, len(lines)):
            depth += lines[j].count("{") - lines[j].count("}")
            if depth <= 0:
                return j
        return None

    def insertion_points(self, lines: list[str]) -> list[int]:
        """Flat line indices at the end of each depth-1 block body.

        Organ blocks inserted there land inside a "method", keeping brace
        balance intact.
        """
        points = []
        depth = 0
        for i, line in enumerate(lines):
            depth_before = depth
            depth += line.count("{") - line.count("}")
            if depth_before == 1 and depth == 0:
                points.append(i)  # the closing line of a depth-1 block
        return points

    def guard_wrap(self, lines: list[str]) -> list[str]:
        return ["guard {"] + list(lines) + ["}"]

    # -- manifest --------------------------------------------------------

    def manifest_parse(self, lines: list[str]) -> ManifestModel:
        model = ManifestModel(name="")
        for i, raw in enumerate(lines):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition(":")
            if not sep:
                raise ManifestParseError(f"line {i}: {raw!r}")
            key, value = key.strip(), value.strip()
            if key == "name":
                model.name = value
            elif key == "deps":
                model.deps = _split_list(value)
            elif key == "slices":
                model.slices = _split_list(value)
            else:
                model.extras[key] = value
        return model

    def manifest_emit(self, model: ManifestModel) -> list[str]:
        lines = [f"name: {model.name}"]
        if model.deps:
            lines.append("deps: " + ", ".join(model.deps))
        if model.slices:
            lines.append("slices: " + ", ".join(model.slices))
        for key in sorted(model.extras):
            lines.append(f"{key}: {model.extras[key]}")
        return lines


def _split_list(value: str) -> list[str]:
    return [v.strip() for v in value.split(",") if v.strip()]


# -- compilability checking ---------------------------------------------------

#: one repository as seen by ``check_listing``: repository-relative path
#: parts -> lines, for every source file and every manifest
Listing = dict[tuple[str, ...], list[str]]


def _external_covers(externals: set[str], module: str) -> bool:
    parts = module.split(".")
    return any(".".join(parts[:k]) in externals for k in range(1, len(parts) + 1))


def _subdir(entry: str) -> Optional[tuple[str, ...]]:
    """Path parts of a manifest directory entry; None when it leaves the
    repository (absolute, or with a ``..`` part)."""
    parts = tuple(p for p in entry.split("/") if p not in ("", "."))
    if entry.startswith("/") or ".." in parts:
        return None
    return parts


def _under(path: tuple[str, ...], root: tuple[str, ...]) -> bool:
    return len(path) > len(root) and path[:len(root)] == root


def check_listing(files: Listing, adapter: MinilangAdapter) -> list[str]:
    """Problems found in one repository; empty means compilable.

    Checks brace balance per source file and resolution of every import
    against the repository's own modules, its declared slice sets and
    declared externals.  Problems name repository-relative paths.
    """
    manifest = ManifestModel(name="")
    if (MANIFEST_NAME,) in files:
        try:
            manifest = adapter.manifest_parse(files[(MANIFEST_NAME,)])
        except ManifestParseError as exc:
            return [f"{MANIFEST_NAME}: {exc}"]

    sources = sorted(p for p in files if adapter.is_source_file(p[-1]))
    slice_roots = [r for r in map(_subdir, manifest.slices) if r is not None]
    src_root = _subdir(manifest.extras.get("srcdir", ""))

    def modules_under(root: Optional[tuple[str, ...]],
                      exclude: Sequence[tuple[str, ...]] = ()) -> set[str]:
        if root is None:
            return set()
        return {adapter.relpath_to_module("/".join(p[len(root):]))
                for p in sources
                if _under(p, root) and not any(_under(p, ex) for ex in exclude)}

    problems: list[str] = []
    slice_modules: set[str] = set()
    externals = set(manifest.deps)
    for root in slice_roots:
        slice_modules |= modules_under(root)
        smani = root + (MANIFEST_NAME,)
        if smani in files:
            try:
                externals |= set(adapter.manifest_parse(files[smani]).deps)
            except ManifestParseError as exc:
                problems.append(f"{'/'.join(smani)}: {exc}")
    host_modules = modules_under(src_root, exclude=slice_roots) | slice_modules

    for path in sources:
        rel = "/".join(path)
        lines = files[path]
        depth = 0
        for i, line in enumerate(lines):
            depth += line.count("{") - line.count("}")
            if depth < 0:
                problems.append(f"{rel}:{i}: unbalanced closing brace")
                break
        if depth > 0:
            problems.append(f"{rel}: unclosed brace")
        in_slice = any(_under(path, root) for root in slice_roots)
        resolvable = slice_modules if in_slice else host_modules
        for line in lines:
            if adapter.is_import(line):
                module = adapter.import_module(line)
                if module not in resolvable and not _external_covers(externals, module):
                    problems.append(f"{rel}: unresolved {line.strip()!r}")
    return problems


def _is_checked_file(adapter: MinilangAdapter, name: str) -> bool:
    return name == MANIFEST_NAME or adapter.is_source_file(name)


def check_files(files: Snapshot, adapter: MinilangAdapter) -> list[str]:
    """Problems of a snapshot map (``history.Snapshot``), the form
    ``history._tree_files`` renders a tree in and ``history._read_snapshot``
    reads a directory in; empty means compilable.

    Repositories are the top-level folders, checked in name order; each
    problem is led by its repository's name.  Raises SnapshotIoError naming
    a checked file that is not UTF-8 text.
    """
    repos: dict[str, dict[str, bytes]] = {}
    for rel, data in files.items():
        repo, _, path = rel.partition("/")
        if data is not None and path and _is_checked_file(
                adapter, path.rpartition("/")[2]):
            repos.setdefault(repo, {})[path] = data
    problems = []
    for name, checked in sorted(repos.items()):
        found = check_listing(
            {tuple(path.split("/")): utf8_text(data, f"{name}/{path}").splitlines()
             for path, data in checked.items()}, adapter)
        problems.extend(f"{name}/{msg}" for msg in found)
    return problems


def check_snapshot_dir(snapshot_dir: Path, adapter: MinilangAdapter,
                       files: Optional[Snapshot] = None,
                       tree: Optional[AssetTree] = None) -> list[str]:
    """Check every repository of a materialized snapshot: ``check_files`` on
    its bytes, read from `snapshot_dir` unless `files` already holds them.
    `tree`, when given, renders to exactly those bytes, so ``check_tree`` of
    it, which keeps each repository's problems, is the answer."""
    if tree is not None:
        return check_tree(tree, adapter)
    if files is None:
        files = _read_snapshot(Path(snapshot_dir))
    return check_files(files, adapter)


def check_tree(tree: AssetTree, adapter: MinilangAdapter) -> list[str]:
    """``check_files`` on each repository's render, in name order, so it
    equals ``check_snapshot_dir`` on a materialized copy of the tree by
    construction; each repository's problems are kept on its node."""
    problems = []
    for repo in sorted(tree.repositories, key=attrgetter("name")):
        if "problems" not in repo.derived:
            repo.derived["problems"] = check_files(_repo_files(repo), adapter)
        problems.extend(repo.derived["problems"])
    return problems
