"""The benchmark corpus: the `calc` seed system and four donors.

At seed 0 the files match the `write_initial_system` and
`write_donor(tests=20, modules=5)` helpers of the test suite, the corpus of
the repository's own baseline.  Other seeds rename the plain words of the
statement lines (``show greeting``, ``work step 0``, ...) through a seeded,
one-to-one, length-preserving map.  Keywords, names, imports and braces stay,
so every seed gives a corpus of the same shape and the same byte counts, and
a fixed evogen seed makes histories of the same shape: the run-to-run spread
of the benchmark measures the machine, not the draw.
"""

from __future__ import annotations

import random
import string
from pathlib import Path

#: the words that seeds rename; every other token is structural
PLAIN_WORDS = ("show", "greeting", "add", "numbers", "emit", "output", "loop",
               "over", "items", "work", "step", "exercise", "check", "outcome")
#: minilang keywords and manifest keys a renamed word must not become
RESERVED = frozenset({"def", "import", "test", "guard", "name", "deps",
                      "slices", "srcdir", "testdir", "stdlib", "lib", "io",
                      "src", "tests", "main", "render", "sum", "calc"})


def word_map(seed: int) -> dict[str, str]:
    """Seeded one-to-one renaming of PLAIN_WORDS; identity at seed 0."""
    if seed == 0:
        return {w: w for w in PLAIN_WORDS}
    rng = random.Random(f"perfbench-corpus/{seed}")
    taken = set(RESERVED)
    out = {}
    for word in PLAIN_WORDS:
        new = ""
        while not new or new in taken:
            new = "".join(rng.choice(string.ascii_lowercase) for _ in word)
        taken.add(new)
        out[word] = new
    return out


def _say(words: dict[str, str], line: str) -> str:
    return " ".join(words.get(tok, tok) for tok in line.split(" "))


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

DONORS = 4
DONOR_TESTS = 20
DONOR_MODULES = 5


def write_initial_system(root: Path, words: dict[str, str]) -> Path:
    system = root / "calc"
    system.mkdir(parents=True)
    (system / "project.manifest").write_text("name: calc\n")
    for filename, lines in (("main.mini", INITIAL_MAIN), ("util.mini", INITIAL_UTIL)):
        (system / filename).write_text(
            "\n".join(_say(words, line) for line in lines) + "\n")
    return system


def write_donor(root: Path, words: dict[str, str], name: str) -> Path:
    """A donor with DONOR_MODULES chained source modules and DONOR_TESTS
    modular tests; test k depends on module (k mod DONOR_MODULES)."""
    donor = root / name
    (donor / "src" / "lib").mkdir(parents=True)
    (donor / "tests").mkdir(parents=True)
    (donor / "project.manifest").write_text(
        f"name: {name}\ndeps: stdlib\nsrcdir: src\ntestdir: tests\n")
    for m in range(DONOR_MODULES):
        lines = [f"def {name}_mod{m} {{", _say(words, f"work step {m}"), "}"]
        if m > 0:
            lines.insert(0, f"import lib.mod{m - 1}")
        (donor / "src" / "lib" / f"mod{m}.mini").write_text("\n".join(lines) + "\n")
    for t in range(DONOR_TESTS):
        dep = t % DONOR_MODULES
        lines = [
            f"import lib.mod{dep}",
            "import stdlib.io",
            "@test",
            f"test {name}_case{t} {{",
            _say(words, f"exercise lib.mod{dep}"),
            _say(words, "check outcome"),
            "}",
        ]
        (donor / "tests" / f"t{t}.mini").write_text("\n".join(lines) + "\n")
    return donor


def write_corpus(root: Path, seed: int) -> tuple[Path, list[Path]]:
    """Write the seed system and the donors under `root`; return their paths."""
    words = word_map(seed)
    system = write_initial_system(root, words)
    donors = [write_donor(root, words, f"donor{i}") for i in range(DONORS)]
    return system, donors
