"""Each command loads only the modules it runs.

Every command runs in a fresh interpreter on a small generated history; at
exit the child writes the names in ``sys.modules``.  The interpreter starts
with ``-S`` and finds evogen and PyYAML through ``PYTHONPATH``: a ``.pth``
file in site-packages may load modules that are no command's doing
(certifi's loads ``tempfile``).  Start-up is most of a short command's cost, so an eager
import of the runner, the generators, a process or scratch-directory
module, or an argument-parsing library shows here before it shows in a
timing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import evogen

from conftest import write_donor, write_initial_system

#: runs ``evogen ARGS...`` and writes the loaded module names to LIST_FILE
#: at exit, whatever the command's exit code
CHILD = """
import sys
list_file, args = sys.argv[1], sys.argv[2:]
try:
    from evogen.cli import main
    main(args=args, prog_name="evogen")
finally:
    with open(list_file, "w", encoding="utf-8") as fh:
        fh.write("\\n".join(sorted(sys.modules)))
"""

#: ``dataclasses`` and what it loads; no command builds a class through it
DATACLASS_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

#: loaded by no command that only reads a history
NOT_FOR_READING = {"evogen.runner", "evogen.generators", "subprocess", "tempfile", "click"}


def loaded_modules(list_file: Path, *args: str) -> set[str]:
    """The modules `evogen ARGS` has loaded when it exits 0."""
    paths = [Path(evogen.__file__).parents[1], Path(yaml.__file__).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, paths)))
    proc = subprocess.run([sys.executable, "-S", "-c", CHILD, str(list_file), *args],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(list_file.read_text(encoding="utf-8").split("\n"))


def evogen_modules(modules: set[str]) -> set[str]:
    return {name for name in modules if name.partition(".")[0] == "evogen"}


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """A small bundled-checker history and the modules its generate loaded."""
    base = tmp_path_factory.mktemp("startup")
    system = write_initial_system(base / "in")
    donor = write_donor(base / "donors", "widget")
    config = base / "config.yaml"
    config.write_text("max_iterations: 8\n")
    out = base / "out"
    modules = loaded_modules(base / "modules.txt", "generate", "--preset",
                             "growing-system", "--config", str(config),
                             "--system", str(system), "--donor", str(donor),
                             "--out", str(out))
    return out, modules


def test_help_loads_only_the_command_line(tmp_path):
    modules = loaded_modules(tmp_path / "modules.txt", "--help")
    assert evogen_modules(modules) == {"evogen", "evogen.cli", "evogen.errors"}
    assert "click" not in modules


@pytest.mark.parametrize("command", ["stats", "validate", "replay"])
def test_reading_a_history_loads_neither_runner_nor_generators(history, tmp_path,
                                                                command):
    out, _ = history
    modules = loaded_modules(tmp_path / "modules.txt", command, str(out))
    assert "evogen.history" in modules
    assert modules & NOT_FOR_READING == set()


def test_bundled_checker_generate_starts_no_process(history):
    _, modules = history
    assert "evogen.runner" in modules
    assert modules & {"subprocess", "tempfile", "click"} == set()


@pytest.mark.parametrize("command", ["--help", "generate", "stats", "validate", "replay"])
def test_no_command_loads_dataclasses(history, tmp_path, command):
    out, modules = history
    if command == "--help":
        modules = loaded_modules(tmp_path / "modules.txt", command)
    elif command != "generate":
        modules = loaded_modules(tmp_path / "modules.txt", command, str(out))
    assert modules & DATACLASS_MODULES == set()
