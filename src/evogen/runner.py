"""Simulation loop: generator selection, retries, transactions, snapshots.

A run is a pure function of (configuration, initial system, donors) at the
byte level of the output directory: every random draw comes from a per-
iteration substream of a seeded portable generator, so adding retries in one
iteration never perturbs later iterations.
"""

from __future__ import annotations

import json
import random
import re
from functools import partial
from pathlib import Path
from typing import Callable, Optional

from . import PRESET_NAMES
from .errors import (BadDistribution, EvogenError, InvalidInitialSystem,
                     LedgerIoError, SnapshotIoError)
from .generators import GENERATOR_IDS, GenContext, generate
from .history import (append_ledger, append_traces, parse_initial_system,
                      write_feature_state, write_snapshot)
# check_snapshot_dir is unused here, but perfbench/tracer.py patches
# runner.check_snapshot_dir, so the binding stays until the benchmark drops it
from .minilang import (MinilangAdapter, check_snapshot_dir,  # noqa: F401
                       check_tree)
from .model import AssetTree, Value
from .operations import Committed, mint_op_id, run_in_transaction
from .transplant import load_donor

BUNDLED_CHECKER = "bundledMinilang"
EXTERNAL_CHECKER = "externalCommand"

TERMINATION_METRICS = ("distinctFeatureCount", "totalFeatureCount",
                       "totalLoc", "repositoryCount")


class RunConfig(Value):
    def __init__(self, max_iterations: int = 200, termination: Optional[str] = None,
                 generators: tuple[str, ...] = GENERATOR_IDS,
                 distribution: Optional[dict[str, float]] = None,
                 max_retries: int = 50, checker_kind: str = BUNDLED_CHECKER,
                 checker_cmd: Optional[str] = None, checker_timeout_s: float = 60.0,
                 seed: int = 0, sensibility_discard_prob: float = 0.5) -> None:
        self.max_iterations = max_iterations
        self.termination = termination
        self.generators = generators
        self.distribution = distribution  # None = uniform
        self.max_retries = max_retries
        self.checker_kind = checker_kind
        self.checker_cmd = checker_cmd
        self.checker_timeout_s = checker_timeout_s
        self.seed = seed
        self.sensibility_discard_prob = sensibility_discard_prob

    def resolved_distribution(self) -> dict[str, float]:
        if self.distribution is None:
            share = 1.0 / len(self.generators)
            return {g: share for g in self.generators}
        return dict(self.distribution)

    def to_dict(self) -> dict:
        return {
            "max_iterations": self.max_iterations,
            "termination": self.termination,
            "generators": list(self.generators),
            "distribution": self.distribution,
            "max_retries": self.max_retries,
            "checker": {"kind": self.checker_kind, "cmd": self.checker_cmd,
                        "timeout_s": self.checker_timeout_s},
            "seed": self.seed,
            "sensibility_discard_prob": self.sensibility_discard_prob,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config `data` describes, an unset key taking its default.
        Raises EvogenError naming the first key that is unknown or whose
        value has the wrong type, so a bad config stops the run before it
        writes anything."""
        known = cls().to_dict()
        value = partial(_config_value, data, known)
        checker = value("checker", _optional(dict), "a mapping") or {}
        _known_keys(data, known)
        _known_keys(checker, known["checker"], "checker.")
        checker_value = partial(_config_value, checker, known["checker"], prefix="checker.")
        return cls(
            max_iterations=value("max_iterations", _whole, "a whole number"),
            termination=value("termination", _optional(str), "a predicate"),
            generators=tuple(value("generators", _names,
                                   "a non-empty list of generator names")),
            distribution=value("distribution", _weights,
                               "a mapping of generator names to weights"),
            max_retries=value("max_retries", _whole, "a whole number"),
            checker_kind=checker_value("kind", lambda kind: isinstance(kind, str),
                                       "a checker kind"),
            checker_cmd=checker_value("cmd", _optional(str), "a shell command"),
            checker_timeout_s=checker_value("timeout_s", _real, "a number of seconds"),
            seed=value("seed", _whole, "a whole number"),
            sensibility_discard_prob=value("sensibility_discard_prob", _real, "a number"),
        )


# -- config value types ------------------------------------------------------

def _config_value(data: dict, defaults: dict, key: str,
                  ok: Callable[[object], bool], expected: str, prefix: str = ""):
    """``data[key]``, or ``defaults[key]`` when the key is unset; raises
    EvogenError naming the key when the value fails `ok`."""
    value = data.get(key, defaults[key])
    if not ok(value):
        raise EvogenError(f"config {prefix}{key}: expected {expected}, got {value!r}")
    return value


def _known_keys(data: dict, known: dict, prefix: str = "") -> None:
    """Raises EvogenError naming the first key of `data` not in `known`."""
    for key in data:
        if key not in known:
            raise EvogenError(f"config {prefix}{key}: expected one of"
                              f" {', '.join(known)}, got an unknown key")


def _whole(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _optional(kind: type) -> Callable[[object], bool]:
    return lambda value: value is None or isinstance(value, kind)


def _names(value) -> bool:
    return (isinstance(value, (list, tuple)) and len(value) > 0
            and all(isinstance(name, str) for name in value))


def _weights(value) -> bool:
    return value is None or isinstance(value, dict) and all(
        isinstance(name, str) and _real(weight) for name, weight in value.items())


def preset(name: str) -> RunConfig:
    """The shipped probability preset `name`, one of PRESET_NAMES; cloning
    generators sit at 0.01 each and the remaining 0.98 is split per preset."""
    if name not in PRESET_NAMES:
        raise EvogenError(f"unknown preset {name!r}")
    clones = {"cloneVariant": 0.01, "cloneFeature": 0.01}
    if name == "uniform-generators":
        dist = {g: 0.98 / 5 for g in
                ("mutAdd", "mutReplace", "mutDelete", "transplant", "removeFeature")}
    elif name == "uniform-operations":
        dist = {"transplant": 0.98 / 3, "removeFeature": 0.98 / 3,
                "mutAdd": 0.98 / 9, "mutReplace": 0.98 / 9, "mutDelete": 0.98 / 9}
    else:  # growing-system
        dist = {"mutAdd": 0.2, "mutReplace": 0.2, "mutDelete": 0.2,
                "transplant": 0.29, "removeFeature": 0.09}
    dist.update(clones)
    return RunConfig(distribution={g: dist[g] for g in GENERATOR_IDS})


# -- generator selection -----------------------------------------------------

def check_weights(distribution: dict[str, float]) -> None:
    """Raise BadDistribution unless the weights are non-negative and sum to 1."""
    if not distribution:
        raise BadDistribution("empty distribution")
    weights = distribution.values()
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise BadDistribution(f"weights must be non-negative and sum to 1: {distribution}")


def select_generator(distribution: dict[str, float], rng: random.Random) -> str:
    check_weights(distribution)
    draw = rng.random()
    acc = 0.0
    for gen_id, weight in distribution.items():
        acc += weight
        if draw < acc:
            return gen_id
    return next(reversed(distribution))


# -- compilability checking --------------------------------------------------

def make_checker(config: RunConfig, adapter) -> Callable[[AssetTree], list[str]]:
    """The compilability gate: problems of a tree, empty when it compiles."""
    if config.checker_kind == BUNDLED_CHECKER:
        return lambda tree: check_tree(tree, adapter)
    if config.checker_kind == EXTERNAL_CHECKER:
        if not config.checker_cmd:
            raise EvogenError("externalCommand checker needs checker.cmd")

        # imported here, not at the top: only an external command needs a
        # process and a scratch directory, so the bundled gate starts faster
        import shutil
        import subprocess
        import tempfile

        def run_cmd(tree: AssetTree) -> list[str]:
            # imported here: perfbench/tracer.py refuses module-level bindings
            # of traced functions that it does not patch
            from .history import materialize_tree
            tmp = tempfile.mkdtemp(prefix="evogen-txn-")
            try:
                materialize_tree(tree, Path(tmp))
                proc = subprocess.run(config.checker_cmd, shell=True, cwd=tmp,
                                      capture_output=True,
                                      timeout=config.checker_timeout_s)
            except subprocess.TimeoutExpired:
                return [f"timeout after {config.checker_timeout_s}s"]
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            if proc.returncode != 0:
                return [f"checker exit status {proc.returncode}"]
            return []

        return run_cmd
    raise EvogenError(f"unknown checker kind {config.checker_kind!r}")


# -- termination predicates --------------------------------------------------

_PREDICATE = re.compile(
    r"^\s*(\w+)\s*(>=|<=|>|<|==)\s*(\d+)\s*$")


def parse_termination(spec: Optional[str]) -> Optional[Callable[[AssetTree], bool]]:
    if spec is None:
        return None
    match = _PREDICATE.match(spec)
    if not match or match.group(1) not in TERMINATION_METRICS:
        raise EvogenError(f"unsupported termination predicate {spec!r}")
    metric, op, bound = match.group(1), match.group(2), int(match.group(3))
    from .stats import tree_metric
    ops = {">=": lambda a, b: a >= b, "<=": lambda a, b: a <= b,
           ">": lambda a, b: a > b, "<": lambda a, b: a < b,
           "==": lambda a, b: a == b}

    return lambda tree: ops[op](tree_metric(tree, metric), bound)


# -- the loop ----------------------------------------------------------------

class RunSummary:
    def __init__(self) -> None:
        self.iterations_run = 0
        self.committed: dict[str, int] = {}
        self.rolled_back: dict[str, int] = {}
        self.skipped: dict[str, int] = {}
        self.final_revision = 0
        self.terminated_early = False

    @property
    def committed_total(self) -> int:
        return sum(self.committed.values())

    def to_dict(self) -> dict:
        return {
            "iterations_run": self.iterations_run,
            "committed": dict(sorted(self.committed.items())),
            "rolled_back": dict(sorted(self.rolled_back.items())),
            "skipped": dict(sorted(self.skipped.items())),
            "committed_total": self.committed_total,
            "final_revision": self.final_revision,
            "terminated_early": self.terminated_early,
        }


def run(config: RunConfig, system_path: Path, donor_paths: list[Path],
        out_dir: Path) -> RunSummary:
    adapter = MinilangAdapter()
    out_dir = Path(out_dir)
    if out_dir.exists() and any(out_dir.iterdir()):
        raise SnapshotIoError(f"output directory not empty: {out_dir}")
    # every check of the config and the inputs comes before the first write
    checker = make_checker(config, adapter)
    distribution = config.resolved_distribution()
    unknown = set(distribution) - set(GENERATOR_IDS)
    if unknown:
        raise BadDistribution(f"unknown generators: {sorted(unknown)}")
    check_weights(distribution)
    unlisted = sorted(g for g, weight in distribution.items()
                      if weight and g not in config.generators)
    if unlisted:
        raise BadDistribution(f"distribution weights generators missing from"
                              f" generators: {unlisted}")
    terminated = parse_termination(config.termination)

    try:
        tree = parse_initial_system(Path(system_path))
    except (OSError, EvogenError) as exc:
        raise InvalidInitialSystem(str(exc)) from exc
    donors = {}
    for donor_path in donor_paths:
        donor = load_donor(Path(donor_path), adapter)
        if donor.id in donors:
            raise InvalidInitialSystem(f"duplicate donor id {donor.id!r}")
        donors[donor.id] = donor

    problems = checker(tree)
    if problems:
        raise InvalidInitialSystem("; ".join(problems))
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "features").mkdir()
    rendered = write_snapshot(tree, 0, out_dir)
    write_feature_state(tree, out_dir)
    debug_path = out_dir / "debug.log"
    debug = open(debug_path, "w", encoding="utf-8", newline="\n")

    ctx = GenContext(adapter=adapter,
                     sensibility_discard_prob=config.sensibility_discard_prob,
                     donors=donors)
    summary = RunSummary()
    traces_persisted = 0

    try:
        for iteration in range(1, config.max_iterations + 1):
            if terminated is not None and terminated(tree):
                summary.terminated_early = True
                break
            summary.iterations_run = iteration
            rng = random.Random(f"{config.seed}/{iteration}")
            gen_id = select_generator(distribution, rng)
            committed = False
            for attempt in range(config.max_retries):
                candidate = generate(gen_id, tree, rng, ctx)
                if candidate is None:
                    debug.write(f"iter {iteration} {gen_id} attempt {attempt}:"
                                f" no candidate\n")
                    continue
                result = run_in_transaction(tree, candidate.kind, candidate.params,
                                            mint_op_id(tree.revision + 1), checker,
                                            adapter=adapter)
                if isinstance(result, Committed):
                    tree = result.tree
                    rendered = write_snapshot(tree, tree.revision, out_dir, rendered)
                    append_ledger(result.record.to_dict(), out_dir)
                    append_traces(tree.traces.traces[traces_persisted:], out_dir)
                    traces_persisted = len(tree.traces.traces)
                    write_feature_state(tree, out_dir)
                    summary.committed[gen_id] = summary.committed.get(gen_id, 0) + 1
                    committed = True
                    break
                summary.rolled_back[gen_id] = summary.rolled_back.get(gen_id, 0) + 1
                debug.write(f"iter {iteration} {gen_id} attempt {attempt}:"
                            f" rolled back: {result.reason}\n")
            if not committed:
                summary.skipped[gen_id] = summary.skipped.get(gen_id, 0) + 1
                debug.write(f"iter {iteration} {gen_id}: skipped after"
                            f" {config.max_retries} attempts\n")
        summary.final_revision = tree.revision
    except (OSError, SnapshotIoError, LedgerIoError) as exc:
        try:
            append_ledger({"kind": "Truncated", "reason": str(exc)}, out_dir)
        except LedgerIoError:
            pass
        raise LedgerIoError(f"history truncated: {exc}") from exc
    finally:
        debug.close()

    run_payload = {"schema": 1, "config": config.to_dict(),
                   "summary": summary.to_dict()}
    (out_dir / "run.json").write_text(
        json.dumps(run_payload, sort_keys=True, indent=1) + "\n",
        encoding="utf-8", newline="\n")
    return summary
