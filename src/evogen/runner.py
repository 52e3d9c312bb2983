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
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from .errors import (BadDistribution, EvogenError, InvalidInitialSystem,
                     LedgerIoError, SnapshotIoError)
from .generators import GENERATOR_IDS, GenContext, generate
from .history import (append_ledger, append_traces, parse_initial_system,
                      write_feature_state, write_snapshot)
from .minilang import MinilangAdapter, check_snapshot_dir
from .model import AssetTree
from .operations import Committed, run_in_transaction
from .transplant import load_donor

BUNDLED_CHECKER = "bundledMinilang"
EXTERNAL_CHECKER = "externalCommand"

TERMINATION_METRICS = ("distinctFeatureCount", "totalFeatureCount",
                       "totalLoc", "repositoryCount")


@dataclass
class RunConfig:
    max_iterations: int = 200
    termination: Optional[str] = None
    generators: tuple[str, ...] = GENERATOR_IDS
    distribution: Optional[dict[str, float]] = None  # None = uniform
    max_retries: int = 50
    checker_kind: str = BUNDLED_CHECKER
    checker_cmd: Optional[str] = None
    checker_timeout_s: float = 60.0
    seed: int = 0
    sensibility_discard_prob: float = 0.5

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
        checker = data.get("checker", {}) or {}
        return cls(
            max_iterations=data.get("max_iterations", 200),
            termination=data.get("termination"),
            generators=tuple(data.get("generators", GENERATOR_IDS)),
            distribution=data.get("distribution"),
            max_retries=data.get("max_retries", 50),
            checker_kind=checker.get("kind", BUNDLED_CHECKER),
            checker_cmd=checker.get("cmd"),
            checker_timeout_s=checker.get("timeout_s", 60.0),
            seed=data.get("seed", 0),
            sensibility_discard_prob=data.get("sensibility_discard_prob", 0.5),
        )


def preset(name: str) -> RunConfig:
    """Shipped probability presets; cloning generators sit at 0.01 each and
    the remaining 0.98 is split per preset."""
    clones = {"cloneVariant": 0.01, "cloneFeature": 0.01}
    if name == "uniform-generators":
        dist = {g: 0.98 / 5 for g in
                ("mutAdd", "mutReplace", "mutDelete", "transplant", "removeFeature")}
    elif name == "uniform-operations":
        dist = {"transplant": 0.98 / 3, "removeFeature": 0.98 / 3,
                "mutAdd": 0.98 / 9, "mutReplace": 0.98 / 9, "mutDelete": 0.98 / 9}
    elif name == "growing-system":
        dist = {"mutAdd": 0.2, "mutReplace": 0.2, "mutDelete": 0.2,
                "transplant": 0.29, "removeFeature": 0.09}
    else:
        raise EvogenError(f"unknown preset {name!r}")
    dist.update(clones)
    return RunConfig(distribution={g: dist[g] for g in GENERATOR_IDS})


PRESET_NAMES = ("uniform-generators", "uniform-operations", "growing-system")


# -- generator selection -----------------------------------------------------

def select_generator(distribution: dict[str, float], rng: random.Random) -> str:
    ids = list(distribution)
    if not ids:
        raise BadDistribution("empty distribution")
    weights = [distribution[g] for g in ids]
    if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-9:
        raise BadDistribution(f"weights must be non-negative and sum to 1: {distribution}")
    draw = rng.random()
    acc = 0.0
    for gen_id, weight in zip(ids, weights):
        acc += weight
        if draw < acc:
            return gen_id
    return ids[-1]


# -- compilability checking --------------------------------------------------

def make_checker(config: RunConfig, adapter) -> Callable[[Path], list[str]]:
    if config.checker_kind == BUNDLED_CHECKER:
        return lambda path: check_snapshot_dir(Path(path), adapter)
    if config.checker_kind == EXTERNAL_CHECKER:
        if not config.checker_cmd:
            raise EvogenError("externalCommand checker needs checker.cmd")

        def run_cmd(path: Path) -> list[str]:
            try:
                proc = subprocess.run(config.checker_cmd, shell=True,
                                      cwd=str(path), capture_output=True,
                                      timeout=config.checker_timeout_s)
            except subprocess.TimeoutExpired:
                return [f"timeout after {config.checker_timeout_s}s"]
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

@dataclass
class RunSummary:
    iterations_run: int = 0
    committed: dict[str, int] = field(default_factory=dict)
    rolled_back: dict[str, int] = field(default_factory=dict)
    skipped: dict[str, int] = field(default_factory=dict)
    final_revision: int = 0
    terminated_early: bool = False

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
    out_dir.mkdir(parents=True, exist_ok=True)

    try:
        tree = parse_initial_system(Path(system_path))
    except (OSError, EvogenError) as exc:
        raise InvalidInitialSystem(str(exc)) from exc
    for donor_path in donor_paths:
        donor = load_donor(Path(donor_path), adapter)
        if donor.id in tree.donors:
            raise InvalidInitialSystem(f"duplicate donor id {donor.id!r}")
        tree.donors[donor.id] = donor

    checker = make_checker(config, adapter)
    distribution = config.resolved_distribution()
    unknown = set(distribution) - set(GENERATOR_IDS)
    if unknown:
        raise BadDistribution(f"unknown generators: {sorted(unknown)}")
    terminated = parse_termination(config.termination)

    snapshot0 = write_snapshot(tree, 0, out_dir)
    problems = checker(snapshot0)
    if problems:
        raise InvalidInitialSystem("; ".join(problems))
    write_feature_state(tree, out_dir)
    debug_path = out_dir / "debug.log"
    debug = open(debug_path, "w", encoding="utf-8", newline="\n")

    ctx = GenContext(adapter=adapter,
                     sensibility_discard_prob=config.sensibility_discard_prob)
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
                if candidate.kind == "TransplantFeature":
                    ctx.consumed.add((candidate.params["donor"],
                                      candidate.params["test_id"]))
                op_id = f"op{tree.revision + 1:04d}"
                result = run_in_transaction(tree, candidate.kind,
                                            candidate.params, op_id, checker,
                                            adapter=adapter)
                if isinstance(result, Committed):
                    tree = result.tree
                    write_snapshot(tree, tree.revision, out_dir)
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
        raise LedgerIoError(str(exc)) from exc
    finally:
        debug.close()

    run_payload = {"schema": 1, "config": config.to_dict(),
                   "summary": summary.to_dict()}
    (out_dir / "run.json").write_text(
        json.dumps(run_payload, sort_keys=True, indent=1) + "\n",
        encoding="utf-8", newline="\n")
    return summary
