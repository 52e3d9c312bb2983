import json
import os
import random

import pytest

from evogen import model as m
from evogen.errors import (DonorIoError, EvogenError, ForbiddenInsertionPoint,
                           MissingDependency, NotModular)
from evogen.history import _repo_files, materialize_tree, parse_initial_system
from evogen.minilang import check_snapshot_dir
from evogen.model import BLOCK
from evogen.operations import RolledBack, run_in_transaction
from evogen.refs import AssetRef, make_asset_ref
from evogen.runner import RunConfig, run
from evogen.transplant import (apply_transplant_feature, extract_organ,
                               legal_insertion_points, load_donor)

from conftest import structurally_equal, write_donor, write_initial_system


class TestLoadDonor:
    def test_loads_manifest_files_and_candidates(self, donor_dir, adapter):
        donor = load_donor(donor_dir, adapter)
        assert donor.id == "widget"
        assert set(donor.module_deps) == {
            "src/lib/mod0.mini", "src/lib/mod1.mini", "src/lib/mod2.mini"}
        assert donor.module_deps["src/lib/mod2.mini"] == {"src/lib/mod1.mini"}
        assert donor.modules == {f"lib.mod{i}": f"src/lib/mod{i}.mini" for i in range(3)}
        names = [c.name for c in donor.test_candidates]
        assert names == ["widget_helper_case", "widget_case0", "widget_case1",
                         "widget_case2", "widget_case3"]

    def test_modularity_classification(self, donor_dir, adapter):
        donor = load_donor(donor_dir, adapter)
        by_name = {c.name: c for c in donor.test_candidates}
        assert not by_name["widget_helper_case"].modular
        assert all(by_name[f"widget_case{i}"].modular for i in range(4))

    def test_missing_manifest_raises(self, tmp_path, adapter):
        (tmp_path / "empty").mkdir()
        with pytest.raises(DonorIoError):
            load_donor(tmp_path / "empty", adapter)

    @pytest.mark.parametrize("rel", ["project.manifest", "src/lib/mod1.mini"])
    def test_file_not_utf8_raises_naming_it(self, tmp_path, adapter, rel):
        donor = write_donor(tmp_path, "widget")
        (donor / rel).write_bytes(b"name: w\n\xff\n")
        with pytest.raises(DonorIoError, match=f"widget/{rel}: not UTF-8 text"):
            load_donor(donor, adapter)

    @pytest.mark.parametrize("name", ["a/b", "..", "."])
    def test_name_that_is_no_directory_name_raises(self, tmp_path, adapter, name):
        """A donor's name becomes the directory ``slices/<name>`` of its
        transplants, so it must name a directory of its own."""
        donor = write_donor(tmp_path, "widget")
        manifest = donor / "project.manifest"
        manifest.write_text(manifest.read_text().replace("name: widget", f"name: {name}"))
        with pytest.raises(EvogenError, match=f"holds {name!r}, not a directory name"):
            load_donor(donor, adapter)

    def test_nameless_donor_named_dotdot_raises(self, tmp_path, adapter):
        donor = write_donor(tmp_path, "anon")
        manifest = donor / "project.manifest"
        manifest.write_text(manifest.read_text().replace("name: anon\n", ""))
        (donor / "sub").mkdir()
        with pytest.raises(EvogenError, match="holds '..', not a directory name"):
            load_donor(donor / "sub" / "..", adapter)

    def test_unresolved_source_import_raises(self, tmp_path, adapter):
        donor = write_donor(tmp_path, "bad")
        (donor / "src" / "lib" / "mod1.mini").write_text("import nowhere.x\n")
        with pytest.raises(MissingDependency) as exc:
            load_donor(donor, adapter)
        assert str(exc.value) == "bad:src/lib/mod1.mini: unresolved import 'nowhere.x'"

    def test_scan_does_not_depend_on_listing_order(self, donor_dir, adapter,
                                                   monkeypatch):
        expected = load_donor(donor_dir, adapter)
        real = os.scandir

        class Listing(list):  # iterable and a context manager, as os.scandir's result
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        def reversed_scandir(path):
            with real(path) as entries:
                return Listing(reversed(list(entries)))
        monkeypatch.setattr(os, "scandir", reversed_scandir)
        donor = load_donor(donor_dir, adapter)
        assert donor == expected
        assert list(donor.files) == list(expected.files) == sorted(
            expected.files, key=lambda rel: rel.split("/"))

    def test_scan_is_deterministic(self, donor_dir, adapter):
        a = load_donor(donor_dir, adapter)
        b = load_donor(donor_dir, adapter)
        assert [c.id for c in a.test_candidates] == [c.id for c in b.test_candidates]
        assert a.module_deps == b.module_deps


class TestExtractOrgan:
    def test_slice_is_transitive_closure(self, donor_dir, adapter):
        donor = load_donor(donor_dir, adapter)
        case2 = next(c for c in donor.test_candidates if c.name == "widget_case2")
        organ = extract_organ(donor, case2.id, adapter)
        # mod2 -> mod1 -> mod0, donor-src-relative paths
        assert set(organ["slice_files"]) == {
            "lib/mod0.mini", "lib/mod1.mini", "lib/mod2.mini"}
        assert organ["body"][0].strip().startswith("test widget_case2")
        assert organ["imports"] == ["import lib.mod2", "import stdlib.io"]

    def test_manifest_adapted_to_used_externals(self, donor_dir, adapter):
        donor = load_donor(donor_dir, adapter)
        case0 = next(c for c in donor.test_candidates if c.name == "widget_case0")
        organ = extract_organ(donor, case0.id, adapter)
        mani = adapter.manifest_parse(organ["manifest"])
        assert mani.name == "widget"
        assert mani.deps == ["stdlib.io"]
        assert "srcdir" not in mani.extras

    def test_nonmodular_rejected(self, donor_dir, adapter):
        donor = load_donor(donor_dir, adapter)
        helper = next(c for c in donor.test_candidates
                      if c.name == "widget_helper_case")
        with pytest.raises(NotModular):
            extract_organ(donor, helper.id, adapter)

    def test_test_set_dependency_rejected(self, tmp_path, adapter):
        donor_dir = write_donor(tmp_path, "tdep", tests=1)
        (donor_dir / "tests" / "shared.mini").write_text("def shared {\n}\n")
        (donor_dir / "tests" / "t0.mini").write_text("\n".join([
            "import shared", "@test", "test tdep_case0 {", "x", "}"]) + "\n")
        donor = load_donor(donor_dir, adapter)
        cand = donor.test_candidates[0]
        with pytest.raises(MissingDependency) as exc:
            extract_organ(donor, cand.id, adapter)
        assert str(exc.value) == (f"{cand.id}: dependency 'shared' lives in"
                                  f" the test source set")

    def test_unresolved_test_import_rejected(self, tmp_path, adapter):
        donor_dir = write_donor(tmp_path, "tdep", tests=1)
        (donor_dir / "tests" / "t0.mini").write_text("\n".join([
            "import nowhere.x", "@test", "test tdep_case0 {", "x", "}"]) + "\n")
        donor = load_donor(donor_dir, adapter)
        cand = donor.test_candidates[0]
        with pytest.raises(MissingDependency) as exc:
            extract_organ(donor, cand.id, adapter)
        assert str(exc.value) == f"{cand.id}: unresolved import 'nowhere.x'"

    @pytest.mark.parametrize("seed", range(50))
    def test_slice_closure_matches_brute_force(self, tmp_path, adapter, seed):
        """Random dependency graphs: the slice equals fixpoint reachability."""
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        donor_root = tmp_path / f"d{seed}"
        (donor_root / "src" / "lib").mkdir(parents=True)
        (donor_root / "tests").mkdir()
        (donor_root / "project.manifest").write_text(
            f"name: d{seed}\ndeps: stdlib\nsrcdir: src\ntestdir: tests\n")
        edges = {}
        for i in range(n):
            deps = sorted({rng.randrange(n) for _ in range(rng.randrange(3))}
                          - {i})
            edges[i] = deps
            lines = [f"import lib.m{d}" for d in deps] + [f"def m{i} {{", "}"]
            (donor_root / "src" / "lib" / f"m{i}.mini").write_text(
                "\n".join(lines) + "\n")
        root_mod = rng.randrange(n)
        (donor_root / "tests" / "t.mini").write_text("\n".join([
            f"import lib.m{root_mod}", "@test", "test case {", "x", "}"]) + "\n")
        donor = load_donor(donor_root, adapter)
        organ = extract_organ(donor, donor.test_candidates[0].id, adapter)

        expected = {root_mod}
        changed = True
        while changed:
            changed = False
            for i in list(expected):
                for d in edges[i]:
                    if d not in expected:
                        expected.add(d)
                        changed = True
        assert set(organ["slice_files"]) == {f"lib/m{i}.mini" for i in expected}


class TestIntegration:
    def _system_tree(self, tmp_path, adapter, donor_name="widget"):
        system = write_initial_system(tmp_path / "sys")
        donor_dir = write_donor(tmp_path / "donors", donor_name)
        return parse_initial_system(system), load_donor(donor_dir, adapter)

    def _transplant_params(self, tree, donor, adapter, test_name="widget_case0",
                           repo_name="calc"):
        cand = next(c for c in donor.test_candidates if c.name == test_name)
        organ = extract_organ(donor, cand.id, adapter)
        repo = tree.find_repository(repo_name)
        path, idx = legal_insertion_points(repo, adapter)[0]
        return {
            "repo": repo_name, "donor": donor.id, "test_id": cand.id,
            "test_name": cand.name,
            "insertion_parent": AssetRef(tree.revision, "/" + path).to_text(),
            "insertion_index": idx, "organ": organ,
        }

    def test_legal_insertion_points_exclude_manifest_and_slices(
            self, tmp_path, adapter):
        tree, donor = self._system_tree(tmp_path, adapter)
        repo = tree.find_repository("calc")
        points = legal_insertion_points(repo, adapter)
        # main.mini has two defs, util.mini one
        assert len(points) == 3
        assert not any(path.endswith("project.manifest") for path, _ in points)
        params = self._transplant_params(tree, donor, adapter)
        apply_transplant_feature(tree, params, "op1", adapter=adapter)
        tree.revision += 1
        repo = tree.find_repository("calc")
        assert any(rel.startswith("calc/slices/") and data
                   for rel, data in _repo_files(repo).items())
        after = legal_insertion_points(repo, adapter)
        assert after
        assert not any(path.startswith("calc/slices/") for path, _ in after)

    def test_transplant_creates_blocks_slice_and_mapping(self, tmp_path, adapter):
        tree, donor = self._system_tree(tmp_path, adapter)
        params = self._transplant_params(tree, donor, adapter)
        record = apply_transplant_feature(tree, params, "op1", adapter=adapter)
        tree.revision += 1
        repo = tree.find_repository("calc")
        host = repo.child_named("main.mini")
        blocks = [c for c in host.children if c.kind == BLOCK]
        assert [b.name for b in blocks] == ["imports", "widget_case0"]
        # guard wrapping
        test_lines = m.flatten_lines(blocks[1])
        assert test_lines[0] == "guard {" and test_lines[-1] == "}"
        # slice files and manifests in place
        slice_root = repo.child_named("slices").child_named("widget")
        assert slice_root.child_named("project.manifest") is not None
        assert slice_root.child_named("lib").child_named("mod0.mini") is not None
        host_manifest = adapter.manifest_parse(
            m.flatten_lines(repo.child_named("project.manifest")))
        assert "slices/widget" in host_manifest.slices
        # new feature maps blocks and slice files
        feature_name = record.params["feature_name"]
        assert feature_name == "widget_case0"
        fpath = ("calc", feature_name)
        assert fpath in blocks[0].mapped_features
        assert fpath in blocks[1].mapped_features
        assert fpath in slice_root.child_named("lib").child_named(
            "mod0.mini").mapped_features
        assert repo.feature_model.find(fpath).origin == "op1"

    def test_transplanted_snapshot_compiles(self, tmp_path, adapter):
        tree, donor = self._system_tree(tmp_path, adapter)
        for name in ("widget_case0", "widget_case2"):
            params = self._transplant_params(tree, donor, adapter, name)
            apply_transplant_feature(tree, params, f"op_{name}", adapter=adapter)
            tree.revision += 1
        out = tmp_path / "snap"
        materialize_tree(tree, out)
        assert check_snapshot_dir(out, adapter) == []

    def test_shared_slice_file_reused_not_duplicated(self, tmp_path, adapter):
        # case0 needs mod0; case1 needs mod1 -> mod0: second transplant must
        # reuse the already present mod0 file
        tree, donor = self._system_tree(tmp_path, adapter)
        p0 = self._transplant_params(tree, donor, adapter, "widget_case0")
        apply_transplant_feature(tree, p0, "op1", adapter=adapter)
        tree.revision += 1
        repo = tree.find_repository("calc")
        mod0 = repo.child_named("slices").child_named("widget") \
                   .child_named("lib").child_named("mod0.mini")
        p1 = self._transplant_params(tree, donor, adapter, "widget_case1")
        record = apply_transplant_feature(tree, p1, "op2", adapter=adapter)
        tree.revision += 1
        lib = repo.child_named("slices").child_named("widget").child_named("lib")
        assert [c.name for c in lib.children].count("mod0.mini") == 1
        assert lib.child_named("mod0.mini") is mod0
        # and both features now map the shared file
        assert {("calc", "widget_case0"), ("calc", "widget_case1")} <= \
            mod0.mapped_features
        assert all(s.kind != "AddAsset" or s.params["name"] != "mod0.mini"
                   for s in record.sub_ops)

    def test_slice_file_cloned_from_sibling_repo(self, tmp_path, adapter):
        from evogen.operations import apply_clone_variant
        tree, donor = self._system_tree(tmp_path, adapter)
        p0 = self._transplant_params(tree, donor, adapter, "widget_case0")
        apply_transplant_feature(tree, p0, "op1", adapter=adapter)
        tree.revision += 1
        calc = tree.find_repository("calc")
        apply_clone_variant(tree, {"source": make_asset_ref(tree, calc).to_text(),
                                   "new_name": "calc_v2"}, "op2", adapter)
        tree.revision += 1
        # remove the transplanted feature from the clone, then transplant the
        # same test into the clone again: slice files come via clone traces
        from evogen.operations import apply_remove_feature
        from evogen.refs import make_feature_ref
        v2 = tree.find_repository("calc_v2")
        ref = make_feature_ref(v2, v2.feature_model.find(("calc", "widget_case0")))
        apply_remove_feature(tree, {"feature": ref.to_text()}, "op3", adapter)
        tree.revision += 1
        p1 = self._transplant_params(tree, donor, adapter, "widget_case0",
                                     repo_name="calc_v2")
        record = apply_transplant_feature(tree, p1, "op4", adapter=adapter)
        tree.revision += 1
        clones = [s for s in record.sub_ops if s.kind == "CloneAsset"]
        assert clones, "slice file should arrive via clone, not copy"
        src_mod0 = calc.child_named("slices").child_named("widget") \
                       .child_named("lib").child_named("mod0.mini")
        tgt_mod0 = v2.child_named("slices").child_named("widget") \
                     .child_named("lib").child_named("mod0.mini")
        assert [t.source_node for t in tree.traces.traces
                if t.target_node == tgt_mod0.node_id] == [src_mod0.node_id]

    def test_feature_name_collision_gets_suffix(self, tmp_path, adapter):
        tree, donor = self._system_tree(tmp_path, adapter)
        for i, op in enumerate(("op1", "op2")):
            params = self._transplant_params(tree, donor, adapter)
            record = apply_transplant_feature(tree, params, op, adapter=adapter)
            tree.revision += 1
        assert record.params["feature_name"] == "widget_case0_2"

    def test_forbidden_insertion_points(self, tmp_path, adapter):
        tree, donor = self._system_tree(tmp_path, adapter)
        params = self._transplant_params(tree, donor, adapter)
        repo = tree.find_repository("calc")
        manifest_ref = make_asset_ref(
            tree, repo.child_named("project.manifest")).to_text()
        bad = dict(params, insertion_parent=manifest_ref)
        with pytest.raises(ForbiddenInsertionPoint):
            apply_transplant_feature(tree, bad, "opX", adapter=adapter)
        # inside a slice, after a first transplant
        apply_transplant_feature(tree, params, "op1", adapter=adapter)
        tree.revision += 1
        mod0 = repo.child_named("slices").child_named("widget") \
                   .child_named("lib").child_named("mod0.mini")
        bad = dict(params, insertion_parent=make_asset_ref(tree, mod0).to_text())
        with pytest.raises(ForbiddenInsertionPoint):
            apply_transplant_feature(tree, bad, "opY", adapter=adapter)

    def test_every_offered_insertion_point_is_accepted(self, tmp_path, adapter):
        """Only ``<repo>/slices`` holds slices: a folder of that name further
        down is ordinary source, offered by the draw and accepted by the
        operation."""
        system = write_initial_system(tmp_path / "sys")
        (system / "src" / "slices").mkdir(parents=True)
        (system / "src" / "slices" / "x.mini").write_text("def x {\nstep\n}\n")
        tree = parse_initial_system(system)
        donor = load_donor(write_donor(tmp_path / "donors", "widget"), adapter)
        params = self._transplant_params(tree, donor, adapter)
        points = legal_insertion_points(tree.find_repository("calc"), adapter)
        assert ("calc/src/slices/x.mini", 2) in points
        for path, idx in points:
            apply_transplant_feature(tree.clone(), dict(
                params, insertion_parent=AssetRef(tree.revision, "/" + path).to_text(),
                insertion_index=idx), "op1", adapter=adapter)

    def test_insertion_parent_with_an_index_path_forbidden(self, tmp_path, adapter):
        # /calc#0 resolves to the repository's first child, a source file,
        # but a file's ref is its filesystem path alone
        tree, donor = self._system_tree(tmp_path, adapter)
        params = self._transplant_params(tree, donor, adapter)
        repo = tree.find_repository("calc")
        assert repo.children[0].kind == m.FILE
        assert repo.children[0].name != "project.manifest"
        bad = dict(params, insertion_parent=f"{tree.revision}:/calc#0")
        with pytest.raises(ForbiddenInsertionPoint):
            apply_transplant_feature(tree, bad, "opX", adapter=adapter)

    @pytest.mark.parametrize("index", [-1, 999, True])
    def test_insertion_index_outside_the_file_raises(self, tmp_path, adapter, index):
        tree, donor = self._system_tree(tmp_path, adapter)
        params = dict(self._transplant_params(tree, donor, adapter), insertion_index=index)
        result = run_in_transaction(tree, "TransplantFeature", params, "op1",
                                    lambda t: [], adapter)
        assert isinstance(result, RolledBack)
        assert result.reason.startswith(f"BadIndex: {index!r} in ")

    def test_replay_from_params_is_identical(self, tmp_path, adapter):
        """The recorded params alone (organ dump included) reproduce the
        post-state on a fresh tree without donor access."""
        tree, donor = self._system_tree(tmp_path, adapter)
        params = self._transplant_params(tree, donor, adapter)
        fresh = tree.clone()
        apply_transplant_feature(tree, params, "op1", adapter=adapter)
        tree.revision += 1
        apply_transplant_feature(fresh, params, "op1", adapter=adapter)
        fresh.revision += 1
        assert structurally_equal(tree.root, fresh.root)

    def test_nameless_donor_transplants_under_its_directory_name(self, tmp_path):
        """A donor manifest without a `name:` line still gives transplants;
        the slice's adapted manifest is named after the donor directory."""
        system = write_initial_system(tmp_path / "in")
        donor_dir = write_donor(tmp_path / "donors", "anon")
        manifest = donor_dir / "project.manifest"
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if not line.startswith("name:")))
        out = tmp_path / "out"
        run(RunConfig(distribution={"transplant": 1.0}, max_iterations=3, seed=1),
            system, [donor_dir], out)
        ledger = [json.loads(line) for line in (out / "ledger.ndjson").read_text().splitlines()]
        assert ledger and ledger[0]["kind"] == "TransplantFeature"
        assert ledger[0]["params"]["donor"] == "anon"
        slice_manifest = (out / "revisions" / "0001" / "calc" / "slices" / "anon"
                          / "project.manifest").read_text()
        assert slice_manifest.splitlines()[0] == "name: anon"
