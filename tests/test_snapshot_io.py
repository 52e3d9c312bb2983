"""Oracles for the whole-snapshot I/O paths of ``evogen.history``.

- Reader: ``validate`` reads each stored snapshot with the inode map of the
  revision before it, and takes the held bytes of every file whose device
  and inode are unchanged.  At every revision of seeded histories that read
  must equal a fresh read, also where every file reports one inode on a
  device of its own revision, and on tampered copies ``validate`` must write
  the ``validation.json`` that fresh reads give.
- Writer: ``_write_tree`` joins strings, so a snapshot write builds a fixed
  number of ``Path`` objects, whatever the number of entries.
- Emitter: ``feature_state``, joined from the fragments kept on the
  repository nodes, must equal ``reference_feature_state`` (one
  ``json.dumps`` of a dict built afresh) on random trees with awkward text,
  also after a fragment is reused at a later revision.  ``validate`` compares
  the stored ``features/NNNN.json`` byte for byte, so a re-indented file is a
  violation.
"""

import json
import os
import random
import re
from contextlib import nullcontext
from pathlib import Path, PurePath

import pytest

from evogen import history as history_module
from evogen.errors import SnapshotIoError
from evogen.history import _read_snapshot, feature_state, write_snapshot
from evogen.model import FILE, Feature, FeatureModel
from evogen.runner import PRESET_NAMES, run

from conftest import (SPECIAL_ENTRIES, invoke, make_special_entry, mix_config,
                      random_fs_tree, random_structured_tree, reference_feature_state,
                      write_donor, write_initial_system)

#: mix -> iterations; the three presets, then the variants mix
MIXES = {**{name: 120 for name in PRESET_NAMES}, "variants": 50}


def _snapshots(out: Path) -> list[Path]:
    return sorted(p for p in (out / "revisions").iterdir() if p.is_dir())


# -- reader ------------------------------------------------------------------

@pytest.mark.parametrize("mix", sorted(MIXES))
def test_inode_reusing_read_equals_fresh_read_at_every_revision(
        mix, oracle_corpus, tmp_path, monkeypatch):
    system, donors = oracle_corpus
    out = tmp_path / "out"
    run(mix_config(mix, MIXES[mix]), system, donors, out)
    real_read = history_module._read_file
    opened = []

    def counting(path):
        opened.append(path)
        return real_read(path)

    inodes: dict = {}
    files_read = 0
    for snap in _snapshots(out):
        monkeypatch.setattr(history_module, "_read_file", counting)
        reused = _read_snapshot(snap, inodes=inodes)
        monkeypatch.setattr(history_module, "_read_file", real_read)
        assert reused == _read_snapshot(snap), snap.name
        # the map holds this revision's files and no others
        assert inodes.keys() == {rel for rel, data in reused.items() if data is not None}
        for rel, (key, _) in inodes.items():
            st = os.stat(snap / rel)
            assert (st.st_dev, st.st_ino) == key, rel
        files_read += len(inodes)
    assert 0 < len(opened) < files_read


class _OtherDevice:
    """A directory entry whose file reports inode 1 on a device of its own
    revision directory, as on a file system that numbers files per mount."""

    def __init__(self, entry: os.DirEntry, device: int) -> None:
        self._entry, self._device = entry, device
        self.name, self.path = entry.name, entry.path
        self.is_dir, self.is_file = entry.is_dir, entry.is_file

    def stat(self):
        st = list(self._entry.stat())
        st[1], st[2] = 1, self._device  # st_ino, st_dev
        return os.stat_result(st)


def test_equal_inode_on_another_device_is_read(oracle_corpus, tmp_path, monkeypatch):
    system, donors = oracle_corpus
    out = tmp_path / "out"
    run(mix_config("variants", 20), system, donors, out)
    real_scandir, real_read = os.scandir, history_module._read_file
    opened = []

    def scandir(path):
        device = int(Path(path).relative_to(out / "revisions").parts[0])
        with real_scandir(path) as entries:
            return nullcontext([_OtherDevice(entry, device) for entry in entries])

    def counting(path):
        opened.append(path)
        return real_read(path)

    inodes: dict = {}
    files_read = 0
    for snap in _snapshots(out):
        fresh = _read_snapshot(snap)
        monkeypatch.setattr(os, "scandir", scandir)
        monkeypatch.setattr(history_module, "_read_file", counting)
        assert _read_snapshot(snap, inodes=inodes) == fresh, snap.name
        monkeypatch.undo()
        files_read += len(inodes)
    assert len(opened) == files_read > 0


@pytest.mark.parametrize("kind", SPECIAL_ENTRIES)
def test_reader_refuses_an_entry_that_is_neither_file_nor_directory(kind, tmp_path):
    system = write_initial_system(tmp_path / "in")
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "stray.mini").write_text("def stray {\n}\n")
    make_special_entry(kind, system / "entry", outside)
    message = f"neither a regular file nor a directory: {system / 'entry'}"
    with pytest.raises(SnapshotIoError, match=re.escape(message)):
        _read_snapshot(system)


def test_reader_follows_a_link_to_its_root(tmp_path):
    system = write_initial_system(tmp_path / "in")
    (tmp_path / "link").symlink_to(system, target_is_directory=True)
    assert _read_snapshot(tmp_path / "link") == _read_snapshot(system)


def test_reader_turns_an_os_error_into_a_snapshot_io_error(tmp_path, monkeypatch):
    system = write_initial_system(tmp_path / "in")

    def failing(path):
        raise PermissionError(13, "Permission denied", path)

    monkeypatch.setattr(history_module, "_read_file", failing)
    with pytest.raises(SnapshotIoError, match="Permission denied"):
        _read_snapshot(system)


def _generate(tmp_path: Path) -> Path:
    system = write_initial_system(tmp_path / "in")
    (system / "assets" / "empty").mkdir(parents=True)
    out = tmp_path / "out"
    run(mix_config("variants", 30), system,
        [write_donor(tmp_path / "donors", "widget", tests=8)], out)
    return out


def _victim(out: Path, wanted) -> Path:
    """The first path of a middle revision, in name order, that `wanted`
    accepts: one of its snapshot, then its feature state."""
    snaps = _snapshots(out)
    for snap in snaps[len(snaps) // 2:]:
        for path in [*sorted(snap.rglob("*")), out / "features" / f"{snap.name}.json"]:
            if wanted(path):
                return path
    pytest.fail("no path to tamper with")


def _linked(path: Path) -> bool:
    return path.is_file() and path.stat().st_nlink > 1 and path.suffix == ".mini"


def _unlinked(path: Path) -> bool:
    return path.is_file() and path.stat().st_nlink == 1 and path.suffix == ".mini"


def _change_first_byte(path: Path) -> None:
    with open(path, "r+b") as fh:
        first = fh.read(1)
        fh.seek(0)
        fh.write(b"Y" if first == b"X" else b"X")


def _rewrite(path: Path) -> None:
    data = path.read_bytes()
    path.unlink()
    path.write_bytes(data + b"tampered\n")


def _feature_state(path: Path) -> bool:
    return path.parent.name == "features"


def _reindent(path: Path) -> None:
    """Rewrite a JSON file with another indent: equal as JSON, not as bytes."""
    path.write_text(json.dumps(json.loads(path.read_text()), sort_keys=True, indent=2) + "\n")


TAMPERS = {
    "byte changed in a linked file": (_linked, _change_first_byte),
    "byte changed in an unlinked file": (_unlinked, _change_first_byte),
    "linked file rewritten under a new inode": (_linked, _rewrite),
    "empty folder removed": (
        lambda p: p.is_dir() and not any(p.iterdir()), Path.rmdir),
    "feature state re-indented": (_feature_state, _reindent),
}


def _validation_json(out: Path) -> tuple[int, bytes]:
    result = invoke(["validate", str(out)])
    return result.exit_code, (out / "validation.json").read_bytes()


@pytest.mark.parametrize("tamper", sorted(TAMPERS))
def test_validate_on_tampered_copy_equals_fresh_reads(tamper, tmp_path, monkeypatch):
    """``validation.json`` with the inode-reusing reader and the kept
    fragments equals the one with fresh reads and the reference encoder."""
    out = _generate(tmp_path)
    wanted, change = TAMPERS[tamper]
    victim = _victim(out, wanted)
    if wanted is not _feature_state:
        rel, inode = victim.relative_to(_snap_of(victim)), os.stat(victim).st_ino
        sharing = {snap.name for snap in _snapshots(out)
                   if os.path.lexists(snap / rel) and os.stat(snap / rel).st_ino == inode}
    change(victim)
    exit_code, reused = _validation_json(out)

    real = history_module._read_snapshot

    def fresh(root, prefix="", inodes=None):
        return real(root, prefix)
    monkeypatch.setattr(history_module, "_read_snapshot", fresh)
    monkeypatch.setattr(history_module, "feature_state", reference_feature_state)
    assert _validation_json(out) == (exit_code, reused)
    assert exit_code == 1
    violations = json.loads(reused)["violations"]
    if wanted is _feature_state:
        assert violations == [{"kind": "mapping-consistency", "where": victim.name,
                               "message": "stored feature state differs from replayed state"}]
        return
    where = {v["where"] for v in violations if v["kind"] == "replay-fidelity"}
    # a change in place shows in every revision that links the file
    assert where == (sharing if change is _change_first_byte else {_snap_of(victim).name})
    assert (len(sharing) > 1) == (wanted is _linked)


def _snap_of(path: Path) -> Path:
    """The revision directory `path` lies in."""
    while path.parent.name != "revisions":
        path = path.parent
    return path


def test_validate_on_untampered_history_reads_few_files(tmp_path, monkeypatch):
    out = _generate(tmp_path)
    real_read = history_module._read_file
    opened = []

    def counting(path):
        opened.append(path)
        return real_read(path)
    monkeypatch.setattr(history_module, "_read_file", counting)
    assert _validation_json(out) == (0, b'{\n "ok": true,\n "violations": []\n}\n')
    stored = sum(1 for snap in _snapshots(out) for p in snap.rglob("*") if p.is_file())
    assert 0 < len(opened) < stored


# -- writer ------------------------------------------------------------------

def test_snapshot_write_builds_a_fixed_number_of_paths(tmp_path, monkeypatch):
    sizes = (0, 10, 100)
    trees = [random_fs_tree(random.Random(3)) for _ in sizes]
    for tree, extra in zip(trees, sizes):
        repo = tree.repositories[0]
        repo.children += [tree.new_node(FILE, f"extra{i}.mini", content=[f"line {i}"])
                          for i in range(extra)]
    outs = [tmp_path / f"out{extra}" for extra in sizes]
    real = PurePath.__truediv__
    joins = []

    def counting(self, key):
        joins.append(key)
        return real(self, key)
    monkeypatch.setattr(PurePath, "__truediv__", counting)
    counts, entries = [], []
    for tree, out in zip(trees, outs):
        files = write_snapshot(tree, 0, out)
        write_snapshot(tree, 1, out, files)  # every file linked
        counts.append(len(joins))
        entries.append(len(files))
        joins.clear()
    assert counts[0] == counts[1] == counts[2] <= 6
    assert [n - entries[0] for n in entries] == list(sizes)


# -- emitter -----------------------------------------------------------------

#: characters json.dumps escapes in some way, and some it keeps
ALPHABET = ["a", "Z", " ", "/", "!", '"', "\\", "\x00", "\x08", "\t", "\n", "\r",
            "\x1f", "\x7f", "\x80", "é", "中", "\u2028", "\u2029", "\ud800",
            "\ufeff", "\U0001f600", "\U0010ffff", '"asset": "', ":", "#", "1"]


def _text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randrange(6)))


def _feature(rng: random.Random, depth: int) -> Feature:
    children = [_feature(rng, depth - 1) for _ in range(rng.randrange(3))] \
        if depth > 1 else []
    return Feature(_text(rng), _text(rng), children)


def _awkward_tree(rng: random.Random):
    """A random tree whose repositories, features and mappings carry awkward
    names; some repositories have no feature model."""
    tree = random_structured_tree(rng)
    tree.revision = rng.randrange(12)
    for r, repo in enumerate(tree.repositories):
        repo.name = _text(rng) + str(r)
        repo.feature_model = FeatureModel(_feature(rng, 6)) if rng.random() < 0.8 else None
        for node in repo.iter_nodes():
            if rng.random() < 0.4:
                node.mapped_features = {tuple(_text(rng) for _ in range(rng.randint(1, 3)))
                                        for _ in range(rng.randint(1, 3))}
    return tree


@pytest.mark.parametrize("seed", range(40))
def test_emitter_equals_json_dumps(seed):
    rng = random.Random(seed)
    tree = _awkward_tree(rng)
    assert feature_state(tree) == reference_feature_state(tree)
    # the fragments kept on the nodes are joined again at later revisions,
    # across a change in the revision's number of digits
    for _ in range(3):
        tree.revision += rng.randint(1, 9)
        assert all("fragment" in repo.derived for repo in tree.repositories)
        assert feature_state(tree) == reference_feature_state(tree)


def _set_feature_name(tree, value) -> None:
    tree.repositories[0].feature_model.root.children[0].name = value


def _set_feature_origin(tree, value) -> None:
    tree.repositories[0].feature_model.root.origin = value


@pytest.mark.parametrize("value", [1, 1.5, True, ("a",), {"a"}, b"a",
                                   {"model": [0]}, {"a": {"b": False}}])
def test_emitter_refuses_other_types(value):
    """Feature names and origins are strings in the schema; the emitter
    raises TypeError on any other value rather than write what
    ``json.dumps`` would not."""
    for place in (_set_feature_name, _set_feature_origin):
        tree = random_fs_tree(random.Random(0))
        tree.repositories[0].feature_model.root.children = [Feature("f", "op1")]
        place(tree, value)
        with pytest.raises(TypeError):
            feature_state(tree)
