import json
import random
from pathlib import Path

import pytest

from evogen.history import SCHEMA_VERSION, parse_initial_system
from evogen.minilang import MinilangAdapter
from evogen.model import (FILE, FOLDER, LINE, REPOSITORY, AssetNode, AssetTree,
                          Feature, FeatureModel)
from evogen.refs import make_asset_ref
from evogen.runner import RunConfig, preset
from evogen.transplant import load_donor


@pytest.fixture
def adapter():
    return MinilangAdapter()


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
def loaded_tree(initial_system, donor_dir, adapter):
    tree = parse_initial_system(initial_system)
    donor = load_donor(donor_dir, adapter)
    tree.donors[donor.id] = donor
    return tree


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


# -- ledger tampers ----------------------------------------------------------
# Each changes one ledger record so that every ref it names still resolves;
# only a replay that compares the record it yields with the stored one sees
# it.  Each returns the index of the record it changed.

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


TAMPERS = {
    "AddMapping asset is /calc/main.mini": _map_main_file,
    "CloneAsset index set to 0": _clone_at_zero,
    "AddAsset name changed": _rename_added_asset,
    "RemoveFeature sub-op dropped": _drop_removal_sub_op,
    "CloneFeature target_parent names the source repository": _parent_in_source_repo,
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
