import random

import pytest

from evogen.errors import ManifestParseError, SnapshotIoError
from evogen.history import _read_snapshot, materialize_tree, parse_snapshot
from evogen.minilang import MinilangAdapter, check_files, check_snapshot_dir, check_tree
from evogen.model import AssetTree, ManifestModel

from conftest import (build_repo, random_repository, reference_check_repository,
                      repository_snapshot, write_initial_system)


@pytest.fixture
def mini():
    return MinilangAdapter()


class TestLexical:
    def test_source_file_suffix(self, mini):
        assert mini.is_source_file("a.mini")
        assert not mini.is_source_file("project.manifest")

    def test_import_round_trip(self, mini):
        assert mini.import_module("  import a.b.c ") == "a.b.c"
        assert mini.module_to_relpath("a.b.c") == "a/b/c.mini"
        assert mini.relpath_to_module("a/b/c.mini") == "a.b.c"

    def test_scan_imports_keeps_order(self, mini):
        lines = ["import z.y", "def f {", "}", "import a.b"]
        assert mini.scan_imports(lines) == ["import z.y", "import a.b"]

    def test_defined_symbols(self, mini):
        assert mini.defined_symbols(["def f {", "x", "}", "def g {", "}"]) == {
            "f", "g"}


class TestScanTests:
    def test_single_test_block(self, mini):
        lines = ["import lib.a", "@test", "test t1 {", "body", "}"]
        cands = mini.scan_tests("tests/t.mini", lines)
        assert len(cands) == 1
        c = cands[0]
        assert c.name == "t1"
        assert (c.marker_line, c.body_start, c.body_end) == (1, 2, 4)
        assert c.imports == ["import lib.a"]
        assert c.modular

    def test_name_holding_a_slash_is_no_candidate(self, mini):
        # the name becomes a feature's, which a "/" would split in a feature ref
        lines = ["@test", "test grp/case2 {", "body", "}", "@test", "test case3 {", "}"]
        assert [c.name for c in mini.scan_tests("t.mini", lines)] == ["case3"]

    def test_unmarked_block_ignored(self, mini):
        assert mini.scan_tests("t.mini", ["test t1 {", "}"]) == []

    def test_local_def_reference_is_nonmodular(self, mini):
        lines = ["def setup {", "}", "@test", "test t {", "setup now", "}"]
        assert not mini.scan_tests("t.mini", lines)[0].modular

    def test_nested_braces_in_body(self, mini):
        lines = ["@test", "test t {", "inner {", "deep", "}", "tail", "}"]
        c = mini.scan_tests("t.mini", lines)[0]
        assert c.body_end == 6

    def test_unclosed_block_skipped(self, mini):
        assert mini.scan_tests("t.mini", ["@test", "test t {", "body"]) == []


class TestInsertionPoints:
    def test_closing_lines_of_depth1_blocks(self, mini):
        lines = ["def a {", "x", "}", "def b {", "inner {", "}", "}"]
        assert mini.insertion_points(lines) == [2, 6]

    def test_flat_file_has_none(self, mini):
        assert mini.insertion_points(["x", "y"]) == []

    def test_guard_wrap_balanced(self, mini):
        wrapped = mini.guard_wrap(["a", "b"])
        assert wrapped[0] == "guard {" and wrapped[-1] == "}"
        assert sum(l.count("{") - l.count("}") for l in wrapped) == 0


class TestManifest:
    def test_parse_all_keys(self, mini):
        m = mini.manifest_parse([
            "name: demo", "deps: stdlib, net", "slices: slices/x",
            "srcdir: src", "# comment", ""])
        assert m.name == "demo"
        assert m.deps == ["stdlib", "net"]
        assert m.slices == ["slices/x"]
        assert m.extras == {"srcdir": "src"}

    def test_bad_line_raises(self, mini):
        with pytest.raises(ManifestParseError):
            mini.manifest_parse(["name demo"])

    @pytest.mark.parametrize("seed", range(20))
    def test_emit_parse_round_trip(self, mini, seed):
        rng = random.Random(seed)
        m = ManifestModel(
            name=f"p{seed}",
            deps=sorted({f"d{rng.randrange(5)}" for _ in range(rng.randrange(4))}),
            slices=sorted({f"slices/s{rng.randrange(3)}"
                           for _ in range(rng.randrange(3))}),
            extras={"srcdir": "src"} if rng.random() < 0.5 else {})
        again = mini.manifest_parse(mini.manifest_emit(m))
        assert again == m


class TestChecker:
    def test_clean_repository(self, tmp_path, mini):
        write_initial_system(tmp_path)
        assert check_snapshot_dir(tmp_path, mini) == []

    def test_unbalanced_brace(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        (repo / "main.mini").write_text("def broken {\n")
        problems = check_snapshot_dir(tmp_path, mini)
        assert any("unclosed brace" in p for p in problems)

    def test_unresolved_import(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        (repo / "main.mini").write_text("import ghost.module\n")
        problems = check_snapshot_dir(tmp_path, mini)
        assert any("unresolved" in p for p in problems)

    def test_import_resolved_by_declared_external(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        (repo / "project.manifest").write_text("name: calc\ndeps: stdlib\n")
        (repo / "main.mini").write_text("import stdlib.io\n")
        assert check_snapshot_dir(tmp_path, mini) == []

    def test_import_resolved_by_own_module(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        (repo / "main.mini").write_text("import util\n")
        assert check_snapshot_dir(tmp_path, mini) == []

    def test_slice_module_resolves_for_host_and_slice(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        (repo / "project.manifest").write_text(
            "name: calc\nslices: slices/widget\n")
        sdir = repo / "slices" / "widget" / "lib"
        sdir.mkdir(parents=True)
        (sdir / "mod0.mini").write_text("def w {\n}\n")
        (sdir.parent / "project.manifest").write_text(
            "name: widget\ndeps: stdlib\n")
        (sdir / "mod1.mini").write_text("import lib.mod0\nimport stdlib.io\n")
        (repo / "main.mini").write_text("import lib.mod0\n")
        assert check_snapshot_dir(tmp_path, mini) == []

    def test_slice_file_cannot_see_host_modules(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        (repo / "project.manifest").write_text(
            "name: calc\nslices: slices/widget\n")
        sdir = repo / "slices" / "widget"
        sdir.mkdir(parents=True)
        (sdir / "bad.mini").write_text("import util\n")
        problems = check_snapshot_dir(tmp_path, mini)
        assert any("unresolved" in p for p in problems)

    def test_snapshot_checks_all_repositories(self, tmp_path, mini):
        write_initial_system(tmp_path, "ok")
        broken = write_initial_system(tmp_path, "broken")
        (broken / "main.mini").write_text("import nope\n")
        problems = check_snapshot_dir(tmp_path, mini)
        assert problems and all(p.startswith("broken/") for p in problems)


# -- one checker over a snapshot's bytes: disk, tree and repository agree ----

def _write(root, files: dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


LISTING_CASES = {
    "srcdir": ({
        "project.manifest": "name: r\nsrcdir: src\n",
        "src/lib/a.mini": "import lib.b\ndef a {\n}\n",
        "src/lib/b.mini": "import lib.gone\n",
        "top.mini": "import lib.a\nimport src.lib.a\n",
    }, ["src/lib/b.mini: unresolved 'import lib.gone'",
        "top.mini: unresolved 'import src.lib.a'"]),
    "dotted slice entry": ({
        "project.manifest": "name: r\nslices: ./slices/x/\n",
        "slices/x/project.manifest": "name: x\ndeps: ext\n",
        "slices/x/lib/m.mini": "import ext.io\nimport top\n",
        "top.mini": "import lib.m\n",
    }, ["slices/x/lib/m.mini: unresolved 'import top'"]),
    "bad manifest": ({
        "project.manifest": "oops\n",
        "a.mini": "def a {\n",
    }, ["project.manifest: line 0: 'oops'"]),
    "bad slice manifest": ({
        "project.manifest": "name: r\nslices: slices/x\n",
        "slices/x/project.manifest": "bogus\n",
        "a.mini": "def a {\n",
    }, ["slices/x/project.manifest: line 0: 'bogus'", "a.mini: unclosed brace"]),
    "empty files": ({
        "project.manifest": "",
        "a.mini": "",
    }, []),
    "parts order, not string order": ({
        "a-b/x.mini": "}\n",
        "a/x.mini": "}\n",
    }, ["a/x.mini:0: unbalanced closing brace",
        "a-b/x.mini:0: unbalanced closing brace"]),
}


class TestListing:
    @pytest.mark.parametrize("case", LISTING_CASES)
    def test_listing_disk_and_tree_agree(self, tmp_path, mini, case):
        files, expected = LISTING_CASES[case]
        listing = {rel: text.splitlines() for rel, text in files.items()}
        in_repo = [f"r/{p}" for p in expected]
        assert check_files(repository_snapshot(listing), mini) == in_repo
        assert reference_check_repository(listing, mini) == expected
        _write(tmp_path / "r", files)
        assert check_snapshot_dir(tmp_path, mini) == in_repo
        assert check_tree(parse_snapshot(tmp_path), mini) == in_repo

    def test_first_repository_by_name_names_its_non_utf8_file_from_every_feeder(
            self, tmp_path, mini):
        for repo, bad in (("zeta", "a.mini"), ("alpha", "z.mini")):
            _write(tmp_path / repo, {"project.manifest": "name: r\n", "m.mini": ""})
            (tmp_path / repo / bad).write_bytes(b"\xff\n")
        files = _read_snapshot(tmp_path)
        zeta_first = dict(sorted(files.items(), reverse=True))
        message = "alpha/z.mini: not UTF-8 text"
        for feed in (lambda: check_files(files, mini),
                     lambda: check_files(zeta_first, mini),
                     lambda: check_snapshot_dir(tmp_path, mini),
                     lambda: check_snapshot_dir(tmp_path, mini, zeta_first)):
            with pytest.raises(SnapshotIoError, match=message):
                feed()

    def test_repositories_in_name_order(self, tmp_path, mini):
        tree = AssetTree()
        build_repo(tree, "zeta", {"a.mini": ["}"]})
        build_repo(tree, "alpha", {"a.mini": ["{"]})
        materialize_tree(tree, tmp_path)
        assert check_tree(tree, mini) == check_snapshot_dir(tmp_path, mini) == [
            "alpha/a.mini: unclosed brace", "zeta/a.mini:0: unbalanced closing brace"]

    @pytest.mark.parametrize("line_break", ["\r", "\x0c", "\x85", "\u2028"])
    def test_tree_line_holding_a_line_break_is_checked_as_written(
            self, tmp_path, mini, line_break):
        # the snapshot splits such a line in two; the gate must see that too
        tree = AssetTree()
        build_repo(tree, "r", {"a.mini": [f"}}{line_break}{{"]})
        materialize_tree(tree, tmp_path)
        expected = ["r/a.mini:0: unbalanced closing brace"]
        assert check_snapshot_dir(tmp_path, mini) == expected
        assert check_tree(tree, mini) == expected


class TestCheckerFixes:
    def test_folder_named_like_a_source_is_not_a_source(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        _write(repo, {"pkg.mini/inner.mini": "def inner {\n}\n",
                      "main.mini": "import pkg\nimport pkg.mini.inner\n"})
        expected = ["calc/main.mini: unresolved 'import pkg'"]
        assert check_snapshot_dir(tmp_path, mini) == expected
        assert check_tree(parse_snapshot(tmp_path), mini) == expected

    def test_slice_manifest_error_names_snapshot_relative_path(self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        _write(repo, {"project.manifest": "name: calc\nslices: slices/x\n",
                      "slices/x/project.manifest": "bogus\n"})
        problems = check_snapshot_dir(tmp_path, mini)
        assert problems == ["calc/slices/x/project.manifest: line 0: 'bogus'"]
        assert check_tree(parse_snapshot(tmp_path), mini) == problems

    @pytest.mark.parametrize("key, entry", [
        ("srcdir", "../lib"), ("srcdir", "LIB_ABS"),
        ("slices", "../lib"), ("slices", "LIB_ABS")])
    def test_entry_outside_the_repository_matches_no_files(self, tmp_path, mini,
                                                           key, entry):
        snap = tmp_path / "snap"
        _write(snap, {"lib/util2.mini": "def u {\n}\n"})
        entry = entry.replace("LIB_ABS", str(snap / "lib"))
        repo = write_initial_system(snap)
        _write(repo, {"project.manifest": f"name: calc\n{key}: {entry}\n",
                      "main.mini": "import util2\n"})
        problems = check_snapshot_dir(snap, mini)
        assert problems == ["calc/main.mini: unresolved 'import util2'"]
        assert check_tree(parse_snapshot(snap), mini) == problems

    def test_checked_file_that_is_not_utf8_is_one_error_from_every_feeder(
            self, tmp_path, mini):
        repo = write_initial_system(tmp_path)
        (repo / "main.mini").write_bytes(b"def main {\n\xff\xfe\n}\n")
        (repo / "notes.txt").write_bytes(b"\xff not checked\n")
        message = "calc/main.mini: not UTF-8 text"
        for feed in (lambda: check_files(_read_snapshot(tmp_path), mini),
                     lambda: check_snapshot_dir(tmp_path, mini),
                     lambda: check_snapshot_dir(tmp_path, mini,
                                                _read_snapshot(tmp_path))):
            with pytest.raises(SnapshotIoError, match=message):
                feed()

    def test_root_manifest_that_does_not_parse_is_the_one_problem_beside_a_non_utf8_source(
            self, tmp_path, mini):
        # the check reads no source of such a repository, on disk as in memory
        _write(tmp_path / "r", {"project.manifest": "oops\n"})
        (tmp_path / "r" / "a.mini").write_bytes(b"\xff\n")
        assert check_snapshot_dir(tmp_path, mini) == ["r/project.manifest: line 0: 'oops'"]

    def test_problem_in_a_file_named_like_its_repository_names_the_repository(
            self, tmp_path, mini):
        _write(tmp_path / "lib", {"library.mini": "def f {\n"})
        expected = ["lib/library.mini: unclosed brace"]
        assert check_snapshot_dir(tmp_path, mini) == expected
        assert check_tree(parse_snapshot(tmp_path), mini) == expected


class TestCheckRepositoryOracle:
    """``check_files`` on a one-repository map equals
    ``reference_check_listing``, the check as first written over tuple
    paths, on seeded random repositories."""

    def test_equals_the_reference_on_random_repositories(self, mini):
        kinds, ordered = set(), 0
        for seed in range(400):
            files = random_repository(random.Random(seed))
            problems = reference_check_repository(files, mini)
            assert check_files(repository_snapshot(files), mini) == [
                f"r/{p}" for p in problems], seed
            kinds.update(self._kind(p) for p in problems)
            ordered += len(set(problems)) > 1
        # every kind of problem shows, and many lists fix an order of
        # distinct messages, so a changed message or order is caught
        assert kinds == {"manifest", "slice manifest", "unbalanced", "unclosed",
                         "unresolved"}
        assert ordered >= 100

    @staticmethod
    def _kind(problem: str) -> str:
        if problem.startswith("project.manifest: "):
            return "manifest"
        if "/project.manifest: " in problem:
            return "slice manifest"
        return next(kind for kind in ("unbalanced", "unclosed", "unresolved")
                    if f": {kind} " in problem)
