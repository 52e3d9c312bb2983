import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from evogen.cli import main
from evogen.errors import ManifestParseError
from evogen.history import SCHEMA_VERSION, parse_initial_system
from evogen.minilang import MinilangAdapter
from evogen.model import (FILE, FOLDER, LINE, MANIFEST_NAME, REPOSITORY, AssetNode,
                          AssetTree, Feature, FeatureModel, ManifestModel)
from evogen.operations import apply_remove_feature
from evogen.refs import AssetRef, make_asset_ref, make_feature_ref, resolve_asset_ref
from evogen.runner import RunConfig, preset, run
from evogen.transplant import load_donor


@pytest.fixture
def adapter():
    return MinilangAdapter()


# -- the command line in this process ----------------------------------------

@dataclass
class Invocation:
    exit_code: int
    output: str                           # stdout and stderr, interleaved
    exception: Optional[BaseException]    # None when the command exits 0


def invoke(args: list[str]) -> Invocation:
    """Run ``evogen ARGS`` in this process, as the console script does, and
    keep its exit code and its output.  A non-zero exit keeps the
    SystemExit as `exception`; any other exception is kept, with code 1."""
    output = io.StringIO()
    exception = None
    with redirect_stdout(output), redirect_stderr(output):
        try:
            main(args=[str(arg) for arg in args], prog_name="evogen")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return Invocation(code, output.getvalue(), exception)


# -- on-disk fixtures --------------------------------------------------------

INITIAL_MAIN = [
    "def main {",
    "show greeting",
    "add numbers",
    "}",
    "def render {",
    "emit output",
    "}",
]

INITIAL_UTIL = [
    "def sum {",
    "loop over items",
    "}",
]


def write_initial_system(root: Path, name: str = "calc") -> Path:
    system = root / name
    system.mkdir(parents=True)
    (system / "project.manifest").write_text("name: " + name + "\n")
    (system / "main.mini").write_text("\n".join(INITIAL_MAIN) + "\n")
    (system / "util.mini").write_text("\n".join(INITIAL_UTIL) + "\n")
    return system


def write_donor(root: Path, name: str, tests: int = 4, modules: int = 3,
                with_nonmodular: bool = False) -> Path:
    """A donor with `modules` chained source modules and `tests` modular
    tests; test k depends on module (k mod modules)."""
    donor = root / name
    (donor / "src" / "lib").mkdir(parents=True)
    (donor / "tests").mkdir(parents=True)
    (donor / "project.manifest").write_text(
        f"name: {name}\ndeps: stdlib\nsrcdir: src\ntestdir: tests\n")
    for m in range(modules):
        lines = [f"def {name}_mod{m} {{", f"work step {m}", "}"]
        if m > 0:
            lines.insert(0, f"import lib.mod{m - 1}")
        (donor / "src" / "lib" / f"mod{m}.mini").write_text("\n".join(lines) + "\n")
    for t in range(tests):
        dep = t % modules
        lines = [
            f"import lib.mod{dep}",
            "import stdlib.io",
            "@test",
            f"test {name}_case{t} {{",
            f"exercise lib.mod{dep}",
            "check outcome",
            "}",
        ]
        (donor / "tests" / f"t{t}.mini").write_text("\n".join(lines) + "\n")
    if with_nonmodular:
        (donor / "tests" / "helper.mini").write_text("\n".join([
            "import stdlib.io",
            "def local_setup {",
            "prepare things",
            "}",
            "@test",
            f"test {name}_helper_case {{",
            "local_setup first",
            "}",
        ]) + "\n")
    return donor


#: entries a snapshot reader must refuse, as ``make_special_entry`` makes them
SPECIAL_ENTRIES = ["loop link", "outside link", "file link", "dangling link", "fifo"]


def make_special_entry(kind: str, path: Path, outside: Path) -> None:
    """Make `path` one of SPECIAL_ENTRIES: a link to its parent folder, a link
    to the directory `outside`, a link to the manifest beside it, a link to
    nothing, or a fifo."""
    if kind == "loop link":
        path.symlink_to("..")
    elif kind == "outside link":
        path.symlink_to(outside, target_is_directory=True)
    elif kind == "file link":
        path.symlink_to("project.manifest")
    elif kind == "dangling link":
        path.symlink_to("nowhere")
    else:
        os.mkfifo(path)


@pytest.fixture(scope="module")
def oracle_corpus(tmp_path_factory):
    """The seed system and two donors of 12 modular tests each that the
    oracle tests generate their histories from."""
    base = tmp_path_factory.mktemp("corpus")
    system = write_initial_system(base / "in")
    donors = [write_donor(base / "donors", f"donor{i}", tests=12, modules=4)
              for i in range(2)]
    return system, donors


#: the clone-heavy `variants` mix of perfbench/run.py
VARIANTS_MIX = {"removeFeature": 0.05, "mutAdd": 0.15, "mutReplace": 0.15,
                "mutDelete": 0.15, "transplant": 0.30, "cloneVariant": 0.08,
                "cloneFeature": 0.12}


#: a CloneFeature-heavy mix; at seed 3 and 40 iterations its history commits
#: every operation kind, and its CloneFeature and RemoveFeature commits clone,
#: declare a slice, map twins and remove assets
CLONE_FEATURE_MIX = {"removeFeature": 0.1, "mutAdd": 0.1, "transplant": 0.3,
                     "cloneVariant": 0.1, "cloneFeature": 0.4}


@pytest.fixture(scope="module")
def clone_feature_history(oracle_corpus, tmp_path_factory):
    """A history with AddMapping, CloneAsset, AddAsset and RemoveFeature
    sub-operations, CloneFeature records and a repository cloned from a
    clone, for the ledger tampers."""
    system, donors = oracle_corpus
    out = tmp_path_factory.mktemp("clone_feature") / "out"
    run(RunConfig(distribution=CLONE_FEATURE_MIX, max_iterations=40, seed=3),
        system, donors, out)
    return out


def mix_config(mix: str, iterations: int) -> RunConfig:
    """A run of `iterations` at seed 1 with a shipped preset or, for
    ``"variants"``, the variants mix."""
    config = RunConfig(distribution=VARIANTS_MIX) if mix == "variants" else preset(mix)
    config.max_iterations = iterations
    config.seed = 1
    return config


@pytest.fixture
def initial_system(tmp_path):
    return write_initial_system(tmp_path)


@pytest.fixture
def donor_dir(tmp_path):
    return write_donor(tmp_path, "widget", tests=4, modules=3,
                       with_nonmodular=True)


@pytest.fixture
def initial_tree(initial_system):
    return parse_initial_system(initial_system)


@pytest.fixture
def donors(donor_dir, adapter):
    """The donor projects of a run by id, as ``GenContext.donors`` holds them."""
    donor = load_donor(donor_dir, adapter)
    return {donor.id: donor}


# -- in-memory tree builders -------------------------------------------------

def build_repo(tree: AssetTree, name: str, files: dict[str, list[str]]):
    """Repository node with nested files given as path -> lines."""
    repo = tree.new_node(REPOSITORY, name)
    repo.feature_model = FeatureModel(Feature(name, origin=f"init:{name}"))
    for path, lines in files.items():
        parts = path.split("/")
        node = repo
        for part in parts[:-1]:
            nxt = node.child_named(part)
            if nxt is None:
                nxt = tree.new_node(FOLDER, part)
                node.children.append(nxt)
            node = nxt
        node.children.append(tree.new_node(FILE, parts[-1], content=list(lines)))
    tree.root.children.append(repo)
    return repo


def random_fs_tree(rng: random.Random, max_depth: int = 3) -> AssetTree:
    """Random repositories/folders/files tree (filesystem level only)."""
    tree = AssetTree()
    for r in range(rng.randint(1, 3)):
        repo = tree.new_node(REPOSITORY, f"repo{r}")
        repo.feature_model = FeatureModel(Feature(f"repo{r}", origin=f"init:repo{r}"))
        _fill_folder(tree, rng, repo, max_depth)
        tree.root.children.append(repo)
    return tree


def _fill_folder(tree, rng, node, depth):
    for i in range(rng.randint(0, 3)):
        if depth > 0 and rng.random() < 0.4:
            child = tree.new_node(FOLDER, f"d{i}")
            _fill_folder(tree, rng, child, depth - 1)
        else:
            lines = [f"line {j}" for j in range(rng.randint(0, 4))]
            child = tree.new_node(FILE, f"f{i}.mini", content=lines)
        node.children.append(child)


def random_structured_tree(rng: random.Random) -> AssetTree:
    """Like random_fs_tree but some files carry block/line structure."""
    tree = random_fs_tree(rng)
    for node in list(tree.root.iter_nodes()):
        if node.kind == FILE and rng.random() < 0.5:
            node.children = []
            for j in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    block = tree.new_node("block", f"b{j}", children=[
                        tree.new_node(LINE, "", content=[f"inner {k}"])
                        for k in range(rng.randint(1, 3))])
                    node.children.append(block)
                else:
                    node.children.append(
                        tree.new_node(LINE, "", content=[f"flat {j}"]))
            node.content = None
    return tree


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


# -- reference encodings -----------------------------------------------------

def _feature_dict(feature: Feature) -> dict:
    return {"name": feature.name, "origin": feature.origin,
            "children": [_feature_dict(c) for c in feature.children]}


def reference_feature_state(tree: AssetTree) -> bytes:
    """``features/NNNN.json`` built afresh from the tree, reading no value
    kept on a node: a dict per repository, each mapped asset's ref searched
    for with ``make_asset_ref``, encoded by ``json.dumps``."""
    repos = {}
    for repo in tree.repositories:
        mappings = [{"asset": make_asset_ref(tree, node).to_text(),
                     "features": sorted("/".join(p) for p in node.mapped_features)}
                    for node in repo.iter_nodes() if node.mapped_features]
        mappings.sort(key=lambda m: m["asset"])
        repos[repo.name] = {
            "model": _feature_dict(repo.feature_model.root) if repo.feature_model else None,
            "mappings": mappings}
    state = {"schema": SCHEMA_VERSION, "revision": tree.revision, "repos": repos}
    return (json.dumps(state, sort_keys=True, indent=1) + "\n").encode("utf-8")


# -- reference feature removal -----------------------------------------------

def reference_removed_assets(repo: AssetNode,
                             feature_path: tuple[str, ...]) -> list[AssetNode]:
    """The nodes RemoveFeature of the feature at `feature_path` must drop,
    by brute force: each node below `repo` mapped to that feature or one of
    its descendants and to no other feature, except one that lies inside
    another such node, which goes with it."""
    removed = {p for p in repo.feature_model.paths() if p[:len(feature_path)] == feature_path}
    exclusive = [n for n in repo.iter_nodes()
                 if n is not repo and n.mapped_features and n.mapped_features <= removed]
    inside = {d.node_id for e in exclusive for d in e.iter_nodes() if d is not e}
    return [n for n in exclusive if n.node_id not in inside]


def removal_outcome(tree: AssetTree, repo: AssetNode, feature_path: tuple[str, ...],
                    adapter) -> tuple[set[int], set[int]]:
    """RemoveFeature of the feature at `feature_path` applied to a copy of
    `tree`: the ids of the nodes its RemoveAsset sub-operations cite,
    resolved in `tree`, which stays as it was, and the ids of the nodes of
    `repo` that survive in the copy."""
    scratch = tree.clone()
    ref = make_feature_ref(repo, repo.feature_model.find(feature_path))
    record = apply_remove_feature(scratch, {"feature": ref.to_text()}, "op1", adapter)
    cited = {resolve_asset_ref(tree, AssetRef.from_text(sub.params["asset"])).node_id
             for sub in record.sub_ops if sub.kind == "RemoveAsset"}
    return cited, {n.node_id for n in scratch.find_repository(repo.name).iter_nodes()}


def removal_matches_reference(tree: AssetTree, repo: AssetNode,
                              feature_path: tuple[str, ...], adapter) -> bool:
    """True when RemoveFeature drops exactly ``reference_removed_assets``
    and every other node of `repo` survives."""
    expected = reference_removed_assets(repo, feature_path)
    gone = {d.node_id for n in expected for d in n.iter_nodes()}
    cited, survivors = removal_outcome(tree, repo, feature_path, adapter)
    return (cited == {n.node_id for n in expected}
            and survivors == {n.node_id for n in repo.iter_nodes()} - gone)


# -- reference compilability check -------------------------------------------

def _external_covers(externals: set[str], module: str) -> bool:
    parts = module.split(".")
    return any(".".join(parts[:k]) in externals for k in range(1, len(parts) + 1))


def _subdir(entry: str):
    parts = tuple(p for p in entry.split("/") if p not in ("", "."))
    if entry.startswith("/") or ".." in parts:
        return None
    return parts


def _under(path: tuple[str, ...], root: tuple[str, ...]) -> bool:
    return len(path) > len(root) and path[:len(root)] == root


def reference_check_listing(files: dict[tuple[str, ...], list[str]],
                            adapter) -> list[str]:
    """The compilability check of one repository as first written: paths as
    tuples of parts, and one scan of the sources per slice root.  The
    reference that ``minilang.check_repository`` must equal."""
    manifest = ManifestModel(name="")
    if (MANIFEST_NAME,) in files:
        try:
            manifest = adapter.manifest_parse(files[(MANIFEST_NAME,)])
        except ManifestParseError as exc:
            return [f"{MANIFEST_NAME}: {exc}"]

    sources = sorted(p for p in files if adapter.is_source_file(p[-1]))
    slice_roots = [r for r in map(_subdir, manifest.slices) if r is not None]
    src_root = _subdir(manifest.extras.get("srcdir", ""))

    def modules_under(root, exclude=()) -> set[str]:
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


def reference_check_repository(files: dict[str, list[str]], adapter) -> list[str]:
    """``reference_check_listing`` of a repository keyed by string paths."""
    return reference_check_listing(
        {tuple(path.split("/")): lines for path, lines in files.items()}, adapter)


#: manifest directory entries: the repository itself, dotted and doubled
#: separators, entries that leave the repository, nested and source-named roots
_ENTRIES = [".", "./", "./x", "x", "x/", "a", "a//b", "a/b", "../x", "a/../b",
            "/abs/x", "/", "src", "src/lib", "slices/a", "slices/a/b", "./slices/x/",
            "x.mini", "a/m.mini"]
_DIRS = ["", "a/", "a/b/", "a-b/", "x/", "src/", "src/lib/", "src/lib/x/",
         "slices/a/", "slices/a/b/", "slices/x/", "slices/x/lib/", "pkg.mini/"]
_NAMES = ["m", "n", "x", "a", "b"]


def _module_name(rng: random.Random) -> str:
    if rng.random() < 0.25:
        return rng.choice(["ext", "ext.io", "stdlib.net", "ghost", "exto"])
    path = rng.choice(_DIRS) + rng.choice(_NAMES)
    parts = path.split("/")
    return ".".join(parts[rng.randrange(len(parts)):])


def _manifest(rng: random.Random, name: str) -> list[str]:
    lines = [f"name: {name}"]
    if rng.random() < 0.5:
        lines.append("deps: " + ", ".join(rng.sample(["ext", "stdlib", "lib"],
                                                      rng.randint(1, 2))))
    if rng.random() < 0.1:
        lines.append(rng.choice(["oops", "  bogus  "]))
    return lines


def random_repository(rng: random.Random) -> dict[str, list[str]]:
    """A repository as ``check_repository`` takes it: manifests whose
    ``slices`` and ``srcdir`` entries are drawn from ``_ENTRIES``, with
    duplicates, and sources of random braces and imports, some of them in
    a folder named like a source or at a path equal to a slice root."""
    files: dict[str, list[str]] = {}
    if rng.random() < 0.9:
        manifest = _manifest(rng, "r")
        if rng.random() < 0.8:
            manifest.append("slices: " + ", ".join(
                rng.choice(_ENTRIES) for _ in range(rng.randint(1, 4))))
        if rng.random() < 0.6:
            manifest.append("srcdir: " + rng.choice(_ENTRIES))
        rng.shuffle(manifest)
        files[MANIFEST_NAME] = manifest
    for folder in rng.sample(_DIRS[1:], rng.randint(0, 3)):
        files[folder + MANIFEST_NAME] = _manifest(rng, folder)
    for _ in range(rng.randint(0, 10)):
        path = rng.choice(_DIRS) + rng.choice(_NAMES) + rng.choice([".mini", ".mini", ".txt"])
        files[path] = [rng.choice(["{", "}", "def f {", "x { }", "work", "", "import",
                                   f"import {_module_name(rng)}",
                                   f"  import  {_module_name(rng)} "])
                       for _ in range(rng.randint(0, 6))]
    return files


# -- reference clone lineage -------------------------------------------------

def _reference_walk(tree: AssetTree, start: int, directed: bool) -> list[int]:
    """The node ids a breadth-first walk over the whole trace list reaches
    from `start`, `start` first, in the order it reaches them, following
    each trace from its source to its target or, unless `directed`, both
    ways; a node's traces are followed in list order."""
    step: dict[int, list[int]] = {}
    for t in tree.traces.traces:
        step.setdefault(t.source_node, []).append(t.target_node)
        if not directed:
            step.setdefault(t.target_node, []).append(t.source_node)
    seen, queue = {start}, [start]
    for cur in queue:
        for nxt in step.get(cur, []):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return queue


def reference_reach(tree: AssetTree, start: int, directed: bool) -> set[int]:
    """The node ids ``_reference_walk`` reaches from `start`, `start`
    included."""
    return set(_reference_walk(tree, start, directed))


def reference_corresponding_asset(tree: AssetTree, node: AssetNode,
                                  target_repo: AssetNode) -> Optional[AssetNode]:
    """``AssetTree.corresponding_asset`` as a breadth-first walk: the first
    node of `target_repo` that the walk over the whole trace list, both ways,
    reaches from `node`, or None."""
    present = {n.node_id: n for n in target_repo.iter_nodes()}
    return next((present[i] for i in _reference_walk(tree, node.node_id, directed=False)
                 if i in present), None)


def reference_clone_feature_triples(tree: AssetTree) -> list[tuple[str, str, tuple]]:
    """(source name, target name, feature path) of every feature the
    cloneFeature draw may move, in the draw's order: the target descends
    from the source by ``reference_reach``, and no feature of the target
    shares the feature's origin or name."""
    triples = []
    repos = [r for r in tree.repositories if r.feature_model is not None]
    for src in repos:
        descendants = reference_reach(tree, src.node_id, directed=True)
        for tgt in repos:
            if tgt is src or tgt.node_id not in descendants:
                continue
            tgt_feats = list(tgt.feature_model.root.iter_features())
            for path in src.feature_model.paths()[1:]:
                f = src.feature_model.find(path)
                if not any(g.origin == f.origin or g.name == f.name for g in tgt_feats):
                    triples.append((src.name, tgt.name, path))
    return triples


def lineage_mismatches(tree: AssetTree, chains: dict[int, list[int]]) -> list[tuple[str, str]]:
    """The ordered repository pairs (a, b) on which `chains`, each
    repository's node id -> its ``TraceDb.lineage``, and ``reference_reach``
    disagree: on whether b descends from a, or on whether the two are
    related (their chains end in one root)."""
    mismatches = []
    for a in tree.repositories:
        descendants = reference_reach(tree, a.node_id, directed=True)
        related = reference_reach(tree, a.node_id, directed=False)
        for b in tree.repositories:
            if ((a.node_id in chains[b.node_id]) != (b.node_id in descendants)
                    or (chains[a.node_id][-1] == chains[b.node_id][-1])
                    != (b.node_id in related)):
                mismatches.append((a.name, b.name))
    return mismatches


# -- ledger tampers ----------------------------------------------------------
# Each changes one ledger record and returns the record's index.  Those of
# TAMPERS before the type tampers leave every ref the record names
# resolvable, so only a replay that compares the record it yields with the
# stored one sees them; each type tamper puts a param the operation takes on
# trust at its peril, so the replay itself refuses it: text of the wrong
# type, a repository or donor name that names no directory of its own, an
# index that is not an int, or a plan that is not a mapping.

def _first_sub_op(records: list[dict], kind: str, accept=lambda params: True):
    return next((i, sub) for i, record in enumerate(records)
                for sub in record["sub_ops"]
                if sub["kind"] == kind and accept(sub["params"]))


def _map_main_file(records: list[dict]) -> int:
    i, sub = _first_sub_op(records, "AddMapping",
                           lambda p: not p["asset"].endswith(":/calc/main.mini"))
    sub["params"]["asset"] = f"{sub['revision_after']}:/calc/main.mini"
    return i


def _clone_at_zero(records: list[dict]) -> int:
    i, sub = _first_sub_op(records, "CloneAsset", lambda p: p["index"] != 0)
    sub["params"]["index"] = 0
    return i


def _rename_added_asset(records: list[dict]) -> int:
    i, sub = _first_sub_op(records, "AddAsset")
    sub["params"]["name"] += "_renamed"
    return i


def _drop_removal_sub_op(records: list[dict]) -> int:
    i, record = next((i, r) for i, r in enumerate(records)
                     if r["kind"] == "RemoveFeature" and r["sub_ops"])
    record["sub_ops"].pop()
    return i


def _parent_in_source_repo(records: list[dict]) -> int:
    i, record = next((i, r) for i, r in enumerate(records)
                     if r["kind"] == "CloneFeature")
    params = record["params"]
    lpq = params["target_parent"].partition("!")[2]
    params["target_parent"] = f"/{params['source_repo']}!{lpq}"
    return i


def _renumber(records: list[dict]) -> int:
    """Renumber the first TransplantFeature record and its sub-operations
    as ``op9999``, ``op9999.0``, ...: a consistent numbering that is not
    the one generate mints."""
    i, record = next((i, r) for i, r in enumerate(records)
                     if r["kind"] == "TransplantFeature")
    record["op_id"] = "op9999"
    for n, sub in enumerate(record["sub_ops"]):
        sub["op_id"] = f"op9999.{n}"
    return i


def _op_id_is_five(records: list[dict]) -> int:
    records[0]["op_id"] = 5
    return 0


def _set_param(kind: str, path: str, value):
    """A tamper that sets the param at the dotted `path` of the first `kind`
    record holding it to `value`."""
    *outer, key = path.split(".")

    def tamper(records: list[dict]) -> int:
        i, params = next((i, r["params"]) for i, r in enumerate(records)
                         if r["kind"] == kind and path.partition(".")[0] in r["params"])
        for name in outer:
            params = params[name]
        params[key] = value
        return i
    return tamper


#: the type tampers: text params of the wrong type
TYPE_TAMPERS = {
    "MutateAsset donor_line is 5": _set_param("MutateAsset", "donor_line", 5),
    "MutateAsset donor_line is a list": _set_param("MutateAsset", "donor_line", ["a", "b"]),
    "TransplantFeature organ.body holds ints":
        _set_param("TransplantFeature", "organ.body", [1, 2]),
    "TransplantFeature organ.imports holds an int":
        _set_param("TransplantFeature", "organ.imports", [5]),
    "TransplantFeature organ.manifest holds an int":
        _set_param("TransplantFeature", "organ.manifest", [3]),
    "CloneVariant new_name is 5": _set_param("CloneVariant", "new_name", 5),
    "CloneVariant new_name is ..": _set_param("CloneVariant", "new_name", ".."),
    "CloneVariant new_name is .": _set_param("CloneVariant", "new_name", "."),
    "TransplantFeature donor is ..": _set_param("TransplantFeature", "donor", ".."),
    "TransplantFeature donor is a/b": _set_param("TransplantFeature", "donor", "a/b"),
    "MutateAsset line is true": _set_param("MutateAsset", "line", True),
    "TransplantFeature insertion_index is true":
        _set_param("TransplantFeature", "insertion_index", True),
    "CloneFeature plan is a list": _set_param("CloneFeature", "plan", [1]),
}

TAMPERS = {
    "AddMapping asset is /calc/main.mini": _map_main_file,
    "CloneAsset index set to 0": _clone_at_zero,
    "AddAsset name changed": _rename_added_asset,
    "RemoveFeature sub-op dropped": _drop_removal_sub_op,
    "CloneFeature target_parent names the source repository": _parent_in_source_repo,
    "op ids renumbered op9999": _renumber,
    "op_id is 5": _op_id_is_five,
    **TYPE_TAMPERS,
}


def tamper_ledger(out: Path, name: str) -> int:
    """Apply ``TAMPERS[name]`` to the ledger of the history at `out`, in
    ``append_ledger``'s line format; return the index of the changed record."""
    ledger = out / "ledger.ndjson"
    records = [json.loads(line) for line in ledger.read_text().splitlines()]
    index = TAMPERS[name](records)
    ledger.write_text("".join(json.dumps(record, sort_keys=True, separators=(",", ":"))
                              + "\n" for record in records))
    return index
