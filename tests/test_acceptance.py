"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so a plain
pytest run shows the per-criterion verdict.
"""

import random
import sys
import time
from pathlib import Path

import pytest
from scipy.stats import chisquare

from evogen.generators import clone_feature_triples
from evogen.history import read_ledger, replay_history
from evogen.minilang import MinilangAdapter, check_snapshot_dir
from evogen.model import AssetTree, Feature
from evogen.operations import apply_clone_variant
from evogen.refs import (AssetRef, FeatureRef, make_asset_ref, resolve_asset_ref,
                         resolve_feature_ref)
from evogen.runner import PRESET_NAMES, preset, run, select_generator
from evogen.stats import compute_metrics
from evogen.transplant import extract_organ, load_donor

from conftest import (build_repo, random_fs_tree, random_structured_tree,
                      reference_clone_feature_triples, reference_removed_assets,
                      removal_matches_reference, structurally_equal, write_donor,
                      write_initial_system)

ADAPTER = MinilangAdapter()
ITERATIONS = 200


def verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def run_preset(name: str, corpus, out_dir: Path, seed: int = 0):
    config = preset(name)
    config.max_iterations = ITERATIONS
    config.seed = seed
    system, donors = corpus
    started = time.monotonic()
    run(config, system, donors, out_dir)
    return config, time.monotonic() - started


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Initial system plus a donor corpus of 48 modular tests."""
    base = tmp_path_factory.mktemp("corpus")
    system = write_initial_system(base / "in")
    donors = [write_donor(base / "donors", f"donor{i}", tests=24, modules=6)
              for i in range(2)]
    modular = sum(
        sum(1 for c in load_donor(d, ADAPTER).test_candidates if c.modular)
        for d in donors)
    assert modular >= 40
    return system, donors


@pytest.fixture(scope="module")
def preset_runs(tmp_path_factory, corpus):
    """One 200-iteration run per shipped preset, with wall-clock times."""
    base = tmp_path_factory.mktemp("runs")
    out = {}
    for name in PRESET_NAMES:
        config, elapsed = run_preset(name, corpus, base / name)
        out[name] = (base / name, config, elapsed)
    return out


def _dir_files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_criterion_compilability_gate(preset_runs):
    failures = []
    for name, (out, config, elapsed) in preset_runs.items():
        assert config.checker_kind == "bundledMinilang"
        if elapsed >= 120:
            failures.append(f"{name} took {elapsed:.1f}s")
        for rev_dir in sorted((out / "revisions").iterdir()):
            problems = check_snapshot_dir(rev_dir, ADAPTER)
            if problems:
                failures.append(f"{name}/{rev_dir.name}: {problems[0]}")
    verdict("compilability gate (3 presets x 200 iterations, < 120 s each)",
            not failures, "; ".join(failures[:3]))


def test_criterion_determinism(tmp_path, corpus, preset_runs):
    first = preset_runs["growing-system"][0]
    run_preset("growing-system", corpus, tmp_path / "again")
    ok = _dir_files(first) == _dir_files(tmp_path / "again")
    verdict("determinism (same config/seed -> byte-identical outDir)", ok)


def test_criterion_replay_fidelity(tmp_path, preset_runs):
    from evogen.history import materialize_tree
    failures = []
    for name, (out, _, _) in preset_runs.items():
        for revision, tree in replay_history(out, ADAPTER):
            scratch = tmp_path / f"{name}-{revision:04d}"
            materialize_tree(tree, scratch)
            snap = out / "revisions" / f"{revision:04d}"
            if _dir_files(scratch) != _dir_files(snap):
                failures.append(f"{name} revision {revision}")
    verdict("replay fidelity (ledger reproduces every snapshot)",
            not failures, "; ".join(failures[:3]))


def _mapping_refs(record: dict) -> list[str]:
    return [s["params"]["asset"] for s in record["sub_ops"]
            if s["kind"] == "AddMapping"]


def test_criterion_ground_truth_exactness(preset_runs):
    failures = []
    for name, (out, _, _) in preset_runs.items():
        records = read_ledger(out)
        states = dict(
            (rev, tree.clone()) for rev, tree in replay_history(out, ADAPTER))
        for record in records:
            after = states[record["revision_after"]]
            if record["kind"] == "TransplantFeature":
                repo = after.find_repository(record["params"]["repo"])
                fpath = (repo.feature_model.root.name,
                         record["params"]["feature_name"])
                actual = {n.node_id for n in repo.iter_nodes()
                          if fpath in n.mapped_features}
                expected = {resolve_asset_ref(
                    after, AssetRef.from_text(ref)).node_id
                    for ref in _mapping_refs(record)}
                organ = record["params"]["organ"]
                if actual != expected or \
                        len(actual) != 2 + len(organ["slice_files"]):
                    failures.append(f"{name}/{record['op_id']}: mapped set "
                                    f"mismatch")
            elif record["kind"] == "RemoveFeature":
                before = states[record["revision_before"]]
                ref = FeatureRef.from_text(record["params"]["feature"])
                repo_before, fpath = resolve_feature_ref(before, ref)
                removed = {p for p in repo_before.feature_model.paths()
                           if p[:len(fpath)] == fpath}
                repo_after = after.find_repository(repo_before.name)
                for node in repo_after.iter_nodes():
                    if node.mapped_features & removed:
                        failures.append(
                            f"{name}/{record['op_id']}: surviving asset "
                            f"{node.name} maps a removed feature")
                # the assets gone are the topmost exclusive ones, with
                # everything inside them, and no others
                gone = ({n.node_id for n in repo_before.iter_nodes()}
                        - {n.node_id for n in repo_after.iter_nodes()})
                if gone != {d.node_id for n in reference_removed_assets(repo_before, fpath)
                            for d in n.iter_nodes()}:
                    failures.append(f"{name}/{record['op_id']}: removed assets"
                                    f" differ from the exclusive ones")
    verdict("ground-truth exactness (transplant mappings, removal cleanup)",
            not failures, "; ".join(failures[:3]))


def test_criterion_trend_reproduction(tmp_path, corpus):
    seeds = range(10)
    finals = {name: [] for name in PRESET_NAMES}
    initials = {name: [] for name in PRESET_NAMES}
    decreases = {name: [] for name in PRESET_NAMES}
    for seed in seeds:
        for name in PRESET_NAMES:
            out = tmp_path / f"{name}-{seed}"
            run_preset(name, corpus, out, seed=seed)
            series = [r.distinct_features
                      for r in compute_metrics(out, ADAPTER)]
            initials[name].append(series[0])
            finals[name].append(series[-1])
            decreases[name].append(
                sum(1 for a, b in zip(series, series[1:]) if b < a))

    growing_wins = sum(
        1 for i in range(len(list(seeds)))
        if finals["growing-system"][i] >= 5 * initials["growing-system"][i]
        and all(finals["growing-system"][i] > finals[u][i]
                for u in ("uniform-generators", "uniform-operations")))
    uniform_churn = {
        u: sum(1 for d in decreases[u] if d >= 3)
        for u in ("uniform-generators", "uniform-operations")}
    ok = growing_wins >= 9 and all(v >= 9 for v in uniform_churn.values())
    verdict("trend reproduction (growth dominance 9/10 seeds, uniform churn)",
            ok, f"growing wins {growing_wins}/10, churn {uniform_churn}")


def test_criterion_donor_exhaustion(tmp_path):
    system = write_initial_system(tmp_path / "in")
    donor = write_donor(tmp_path / "donors", "small", tests=6, modules=3)
    config = preset("uniform-operations")
    config.max_iterations = ITERATIONS
    config.seed = 2
    run(config, system, [donor], tmp_path / "out")
    records = read_ledger(tmp_path / "out")
    transplant_revs = [r["revision_after"] for r in records
                       if r["kind"] == "TransplantFeature"]
    series = [r.distinct_features
              for r in compute_metrics(tmp_path / "out", ADAPTER)]
    last = transplant_revs[-1] if transplant_revs else 0
    tail = series[last:]
    exhausted = "no candidate" in (tmp_path / "out" / "debug.log").read_text()
    monotone = all(b <= a for a, b in zip(tail, tail[1:]))
    ok = exhausted and monotone and len(tail) > 20
    verdict("donor exhaustion (distinct features non-increasing afterwards)",
            ok, f"{len(transplant_revs)} transplants, tail of {len(tail)}")


def test_criterion_distribution_sanity():
    draws = 100_000
    failures = []
    for name in PRESET_NAMES:
        dist = preset(name).resolved_distribution()
        rng = random.Random(f"dist-{name}")
        counts = {g: 0 for g in dist}
        for _ in range(draws):
            counts[select_generator(dist, rng)] += 1
        observed = [counts[g] for g in sorted(dist)]
        expected = [dist[g] * draws for g in sorted(dist)]
        p_value = chisquare(observed, expected).pvalue
        if p_value <= 0.01:
            failures.append(f"{name}: chi-square p={p_value:.4f}")
        for g in dist:
            sigma = (draws * dist[g] * (1 - dist[g])) ** 0.5
            if abs(counts[g] - dist[g] * draws) > 3 * sigma:
                failures.append(f"{name}/{g}: outside 3 sigma")
    verdict("distribution sanity (100k draws, chi-square p > 0.01, 3 sigma)",
            not failures, "; ".join(failures[:3]))


def test_criterion_clone_correctness():
    failures = []
    for case in range(1000):
        rng = random.Random(case)
        tree = random_fs_tree(rng)
        source = tree.repositories[rng.randrange(len(tree.repositories))]
        node_count = sum(1 for _ in source.iter_nodes())
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, source).to_text(),
                   "new_name": "the_clone"}, f"op{case}", ADAPTER)
        clone = tree.find_repository("the_clone")
        clone.name = source.name
        equal = structurally_equal(source, clone)
        clone.name = "the_clone"
        traces = sum(t.op_id == f"op{case}" for t in tree.traces.traces)
        fresh_ids = not ({n.node_id for n in source.iter_nodes()}
                         & {n.node_id for n in clone.iter_nodes()})
        if not (equal and fresh_ids and traces == node_count):
            failures.append(f"case {case}: equal={equal} traces={traces} "
                            f"expected={node_count}")
    verdict("clone correctness (1000 cases, traces = descendants + 1)",
            not failures, "; ".join(failures[:3]))


def _random_feature_model(rng, repo):
    names = ["A", "B", "C", "D"]
    children = []
    for name in rng.sample(names, rng.randint(1, 3)):
        feature = Feature(name, f"op_{name}")
        if rng.random() < 0.4:
            feature.children.append(Feature(name + "1", f"op_{name}1"))
        children.append(feature)
    repo.feature_model.root.children = children


def _oracle_feature_exclusive(rng):
    """RemoveFeature on a random repository of folders, files, blocks and
    lines, each node mapped to random features, against the brute force."""
    tree = random_structured_tree(rng)
    repo = tree.repositories[0]
    _random_feature_model(rng, repo)
    paths = [p for p in repo.feature_model.paths() if len(p) > 1]
    for node in repo.iter_nodes():
        if node is not repo and rng.random() < 0.6:
            node.mapped_features = {p for p in paths if rng.random() < 0.4}
    query = paths[rng.randrange(len(paths))]
    return removal_matches_reference(tree, repo, query, ADAPTER)


def _oracle_slice_closure(rng, scratch: Path):
    n = rng.randint(2, 5)
    root = scratch
    (root / "src").mkdir(parents=True)
    (root / "tests").mkdir()
    (root / "project.manifest").write_text(
        "name: d\ndeps: std\nsrcdir: src\ntestdir: tests\n")
    edges = {}
    for i in range(n):
        deps = sorted({rng.randrange(n) for _ in range(rng.randrange(3))} - {i})
        edges[i] = deps
        lines = [f"import m{d}" for d in deps] + [f"def m{i} {{", "}"]
        (root / "src" / f"m{i}.mini").write_text("\n".join(lines) + "\n")
    start = rng.randrange(n)
    (root / "tests" / "t.mini").write_text(
        f"import m{start}\n@test\ntest c {{\nx\n}}\n")
    donor = load_donor(root, ADAPTER)
    organ = extract_organ(donor, donor.test_candidates[0].id, ADAPTER)
    expected = {start}
    changed = True
    while changed:
        changed = False
        for i in list(expected):
            for d in edges[i]:
                if d not in expected:
                    expected.add(d)
                    changed = True
    return set(organ["slice_files"]) == {f"m{i}.mini" for i in expected}


def _oracle_clone_feature_enum(rng):
    tree = AssetTree()
    repo = build_repo(tree, "r", {"a.mini": ["x"]})
    _random_feature_model(rng, repo)
    for v in range(rng.randint(1, 2)):
        src = tree.repositories[rng.randrange(len(tree.repositories))]
        apply_clone_variant(
            tree, {"source": make_asset_ref(tree, src).to_text(),
                   "new_name": f"v{v}"}, f"op{v}", ADAPTER)
        tree.revision += 1
    for variant in tree.repositories:
        kept = [f for f in variant.feature_model.root.children
                if rng.random() < 0.7]
        variant.feature_model.root.children = kept
        if rng.random() < 0.3:
            variant.feature_model.root.children.append(
                Feature(f"N{variant.name}", f"op_N{variant.name}"))
    actual = [(s.name, t.name, p) for s, t, p in clone_feature_triples(tree)]
    return actual == reference_clone_feature_triples(tree)


def test_criterion_oracle_equivalence(tmp_path):
    failures = []
    for case in range(500):
        if not _oracle_feature_exclusive(random.Random(f"fx-{case}")):
            failures.append(f"RemoveFeature exclusive assets case {case}")
    for case in range(500):
        scratch = tmp_path / f"d{case}"
        if not _oracle_slice_closure(random.Random(f"sc-{case}"), scratch):
            failures.append(f"slice closure case {case}")
    for case in range(500):
        if not _oracle_clone_feature_enum(random.Random(f"cf-{case}")):
            failures.append(f"cloneFeature enumeration case {case}")
    verdict("oracle equivalence (3 x 500 randomized instances)",
            not failures, "; ".join(failures[:3]))
