"""End-to-end and per-layer benchmark of evogen's generate, validate and stats.

    python3 perfbench/run.py --workload grow --seed 3 --seconds 25 --trace 0

Run it from the root of a source checkout; it needs ``src/evogen`` and the
``click`` and ``PyYAML`` packages, and builds nothing.  It writes only under
``.perfbench_work/`` in the checkout, which it removes again, and points the
commands' ``TMPDIR`` there so transaction scratch trees stay inside it too.

Each workload runs the three user commands as separate processes, one at a
time, on a corpus made from ``--seed`` (see ``corpus.py``).  With
``--trace 0`` it repeats generate, validate and stats while ``--seconds``
allow and reports the end-to-end metrics as medians over the repetitions.
Times are CPU seconds of the command's process (see README.md for why not
wall time).  With ``--trace 1`` it runs one untraced generate and then the
three commands under the tracer (``tracer.py``), and reports the per-layer
metrics.

Every history is checked: validate must say "history valid", stats must
print one row per revision, repeated histories must hash the same, the traced
history must hash as the untraced one, and at seed 0 the hash must equal the
workload's pinned digest.  A command that exits non-zero or fails a check
counts as failed.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import write_corpus

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
WORK_ROOT = CHECKOUT / ".perfbench_work"

SETUP_REPEATS = 7
#: repetitions of generate, validate and stats a run makes at least
MIN_REPETITIONS = 2
#: stats is short, so each repetition runs it this many times
STATS_REPEATS = 7
COMMAND_TIMEOUT_S = 150.0
#: output files that are not part of the byte-identical history contract
UNHASHED = {"run.json", "debug.log", "validation.json"}


@dataclass(frozen=True)
class Workload:
    iterations: int
    #: evogen's own run seed; fixed, so that every --seed gives a history of
    #: the same shape (--seed varies the corpus words, see corpus.py)
    evogen_seed: int = 1
    preset: str | None = None
    distribution: dict[str, float] | None = None
    #: sha256 of the history at --seed 0 (see history_digest)
    digest: str = ""


WORKLOADS = {
    # Tree and mapped assets grow every revision: ref minting and feature
    # state writes grow with revisions x tree size.  Seed 4 clones two
    # variants by iteration 95, so the tree triples within a short run.
    "grow": Workload(iterations=100, evogen_seed=4, preset="growing-system",
                     digest="6dc8e732af7c15e61490651fc06858e337bbd797c00b5165d5a8f45d20d2460b"),
    # Most attempts roll back: per-attempt clone, materialize and full check
    # dominate; ref minting barely shows (the "should not move" workload).
    "churn": Workload(iterations=150, preset="uniform-generators",
                      digest="dffbf6d1e5ebb095a406722cc4ef64e5bdf16f64f0dad62b2e3e2eed962cfa5c"),
    # Many variants: every attempt re-checks and re-writes all repositories,
    # and only here corresponding_asset and trace scans run often.
    "variants": Workload(iterations=50, distribution={
        "removeFeature": 0.05, "mutAdd": 0.15, "mutReplace": 0.15,
        "mutDelete": 0.15, "transplant": 0.30, "cloneVariant": 0.08,
        "cloneFeature": 0.12},
        digest="0505a47bf4db5e59bdbd9f72f92e43b834eef655e51268199afd50959cd2b4ee"),
}

#: (name, unit) of the end-to-end metrics, reported with --trace 0
END_TO_END = [
    ("setup_s", "s"), ("generate_s", "s"), ("validate_s", "s"), ("stats_s", "s"),
    ("revisions_per_s", "1/s"), ("generate_peak_rss_mb", "MB"),
    ("validate_peak_rss_mb", "MB"), ("generate_write_mb", "MB"),
    ("out_disk_mb", "MB"), ("rollback_ratio", "ratio"),
]

#: traced functions reported per phase, as <phase>.<function>.<stat>
PHASE_FUNCTIONS = {
    "generate": [
        "cli.main", "runner.run", "generators.generate",
        "operations.run_in_transaction", "operations.execute",
        "model.AssetTree.clone", "model.AssetTree.path_to",
        "model.AssetTree.corresponding_asset", "refs.make_asset_ref",
        "history.materialize_tree", "history.write_snapshot",
        "history.append_ledger", "history.append_traces",
        "history.feature_state", "history.write_feature_state",
        "minilang.check_snapshot_dir", "transplant.legal_insertion_points",
        "transplant.extract_organ", "transplant.apply_transplant_feature",
    ],
    "validate": [
        "cli.main", "history.validate_history", "operations.execute",
        "transplant.apply_transplant_feature", "model.AssetTree.clone",
        "model.AssetTree.path_to", "model.AssetTree.corresponding_asset",
        "refs.make_asset_ref", "history.materialize_tree",
        "history.feature_state", "minilang.check_snapshot_dir",
    ],
    "stats": [
        "cli.main", "stats.compute_metrics", "stats.metric_row",
        "operations.execute", "transplant.apply_transplant_feature",
        "model.AssetTree.path_to", "model.AssetTree.corresponding_asset",
        "refs.make_asset_ref",
    ],
}
#: called exactly once per phase, so their call count carries no information
SINGLE_CALL = {"cli.main", "runner.run", "history.validate_history",
               "stats.compute_metrics"}
#: never called on churn, where its times would read 0.0 on every run; only
#: its call count is reported (its time is left out of every self time, as
#: for any traced function)
CALLS_ONLY = {"model.AssetTree.corresponding_asset"}


def per_layer_spec() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    spec = []
    for phase, functions in PHASE_FUNCTIONS.items():
        for fn in functions:
            if fn not in SINGLE_CALL:
                spec.append((f"{phase}.{fn}.calls", "count"))
            if fn not in CALLS_ONLY:
                spec.append((f"{phase}.{fn}.total_s", "s"))
                spec.append((f"{phase}.{fn}.self_s", "s"))
            if fn == "minilang.check_snapshot_dir":
                spec.append((f"{phase}.{fn}.repos", "count"))
            if fn == "generators.generate":
                spec.append((f"{phase}.{fn}.none_ratio", "ratio"))
    spec += [("runner.commits", "count"), ("runner.rollbacks", "count"),
             ("runner.skips", "count"), ("runner.commit_ratio", "ratio"),
             ("runner.iteration_ms.p50", "ms"), ("runner.iteration_ms.p99", "ms"),
             ("runner.iteration_growth", "ratio"), ("trace.overhead_ratio", "ratio")]
    return spec


# -- one command as a child process --------------------------------------------

@dataclass
class Command:
    code: int
    stdout: str
    wall_s: float
    user_s: float
    sys_s: float
    peak_rss_mb: float
    wchar: int | None
    spans: dict | None


def _cpu_s(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def _wchar(io_file: Path) -> int | None:
    """The ``wchar`` line of a saved ``/proc/self/io``, or None."""
    if not io_file.is_file():
        return None
    for line in io_file.read_text(encoding="ascii").splitlines():
        key, _, value = line.partition(":")
        if key == "wchar":
            return int(value)
    return None


class Bench:
    def __init__(self, workload: Workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(CHECKOUT / "src"),
                        TMPDIR=str(work / "tmp"))
        self.attempted = 0
        self.failures: list[str] = []
        self.system: Path | None = None
        self.donors: list[Path] = []
        self.config: Path | None = None
        self.history_digest: str | None = None
        self.stats_digest: str | None = None
        self._ncmd = 0

    # -- running -----------------------------------------------------------

    def command(self, args: list[str], spans: bool = False) -> Command:
        """Run `evogen ARGS` in a child process and wait for it."""
        self._ncmd += 1
        io_file = self.work / f"cmd{self._ncmd}.io"
        out_file = self.work / f"cmd{self._ncmd}.out"
        spans_file = self.work / f"cmd{self._ncmd}.spans"
        argv = [sys.executable, str(HERE / "child.py"), str(io_file)]
        if spans:
            argv += ["--spans", str(spans_file)]
        argv += ["--", *args]
        with open(out_file, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=self.work,
                                    stdout=out, stdin=subprocess.DEVNULL)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        span_data = json.loads(spans_file.read_text()) if spans and spans_file.is_file() else None
        return Command(code=proc.returncode,
                       stdout=out_file.read_text(encoding="utf-8", errors="replace"),
                       wall_s=wall, user_s=usage.ru_utime, sys_s=usage.ru_stime,
                       peak_rss_mb=usage.ru_maxrss * 1024 / 1e6, wchar=_wchar(io_file),
                       spans=span_data)

    def expect(self, what: str, ok: bool) -> bool:
        """Count one attempted command; record it as failed unless `ok`."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    # -- set-up ------------------------------------------------------------

    def setup(self) -> list[float]:
        """Make the inputs and start the program SETUP_REPEATS times; return
        the CPU seconds (user and system) of each: corpus and config writing
        in this process plus one ``evogen --help``."""
        times = []
        for i in range(SETUP_REPEATS):
            base = self.work / f"setup{i}"
            before = _cpu_s(resource.getrusage(resource.RUSAGE_SELF))
            system, donors = write_corpus(base / "corpus", self.seed)
            config = base / "config.yaml"
            config.write_text(self.config_yaml(), encoding="utf-8")
            after = _cpu_s(resource.getrusage(resource.RUSAGE_SELF))
            started = self.command(["--help"])
            self.expect("setup: evogen --help", started.code == 0)
            times.append(after - before + started.user_s + started.sys_s)
            if self.system is not None:
                shutil.rmtree(self.system.parent.parent)
            self.system, self.donors, self.config = system, donors, config
        return times

    def config_yaml(self) -> str:
        lines = [f"max_iterations: {self.workload.iterations}",
                 f"seed: {self.workload.evogen_seed}"]
        if self.workload.distribution:
            lines.append("distribution:")
            lines += [f"  {k}: {v}" for k, v in self.workload.distribution.items()]
        return "\n".join(lines) + "\n"

    def generate_args(self, out: Path) -> list[str]:
        args = ["generate", "--config", str(self.config), "--system", str(self.system)]
        if self.workload.preset:
            args += ["--preset", self.workload.preset]
        for donor in self.donors:
            args += ["--donor", str(donor)]
        return args + ["--out", str(out)]

    # -- checks ------------------------------------------------------------

    def check_history(self, out: Path, label: str) -> tuple[dict, bool]:
        """Hash `out` and compare with earlier histories of this run and, at
        seed 0, with the pinned digest.  Return run.json's summary."""
        summary = json.loads((out / "run.json").read_text())["summary"]
        digest = history_digest(out)
        ok = self.history_digest in (None, digest)
        if self.seed == 0 and digest != self.workload.digest:
            print(f"# {label}: history digest {digest} differs from the pinned"
                  f" {self.workload.digest}")
            ok = False
        if self.history_digest is None:
            self.history_digest = digest
        return summary, ok

    def check_stats(self, cmd: Command, summary: dict) -> bool:
        rows = cmd.stdout.splitlines()[1:]
        if cmd.code != 0 or len(rows) != summary["final_revision"] + 1:
            return False
        digest = hashlib.sha256(cmd.stdout.encode()).hexdigest()
        if self.stats_digest is None:
            self.stats_digest = digest
        return digest == self.stats_digest and rows[-1].startswith(
            f"{summary['final_revision']},")

    # -- the two kinds of run ------------------------------------------------

    def repetition(self, i: int) -> dict | None:
        out = self.work / f"out{i}"
        gen = self.command(self.generate_args(out))
        ok_gen = gen.code == 0 and "committed" in gen.stdout and gen.wchar is not None
        if ok_gen:
            summary, ok_gen = self.check_history(out, f"repetition {i}")
        if not self.expect("generate", ok_gen):
            self.expect("validate (not run)", False)
            self.expect("stats (not run)", False)
            return None
        disk = disk_bytes(out)
        val = self.command(["validate", str(out)])
        ok_val = self.expect("validate", val.code == 0 and val.stdout.strip() == "history valid")
        stats = [self.command(["stats", str(out)]) for _ in range(STATS_REPEATS)]
        ok_st = all([self.expect("stats", self.check_stats(st, summary)) for st in stats])
        shutil.rmtree(out)
        if not (ok_val and ok_st):
            return None
        committed = summary["committed_total"]
        rolled_back = sum(summary["rolled_back"].values())
        return {
            "gen": gen, "val": val, "disk": disk,
            "stats_cpu_s": statistics.median(st.user_s + st.sys_s for st in stats),
            "committed": committed,
            "rollback_ratio": rolled_back / (committed + rolled_back),
        }

    def measure(self, seconds: float) -> dict[str, float] | None:
        setup = self.setup()
        reps: list[dict] = []
        start = time.perf_counter()
        i = 0
        while i < MIN_REPETITIONS or time.perf_counter() - start < seconds:
            rep = self.repetition(i)
            i += 1
            if rep is not None:
                reps.append(rep)
        print(f"# repetitions: {i} run in {time.perf_counter() - start:.1f} s,"
              f" {len(reps)} passed every check")
        if not reps:
            return None
        med = lambda f: statistics.median(f(r) for r in reps)
        for label, key in (("generate", "gen"), ("validate", "val")):
            print(f"# {label} medians: wall {med(lambda r: r[key].wall_s):.3f} s,"
                  f" user {med(lambda r: r[key].user_s):.3f} s,"
                  f" sys {med(lambda r: r[key].sys_s):.3f} s")
        return {
            "setup_s": statistics.median(setup),
            "generate_s": med(lambda r: r["gen"].user_s),
            "validate_s": med(lambda r: r["val"].user_s),
            "stats_s": med(lambda r: r["stats_cpu_s"]),
            "revisions_per_s": med(lambda r: r["committed"] / r["gen"].user_s),
            "generate_peak_rss_mb": med(lambda r: r["gen"].peak_rss_mb),
            "validate_peak_rss_mb": med(lambda r: r["val"].peak_rss_mb),
            "generate_write_mb": med(lambda r: r["gen"].wchar) / 1e6,
            "out_disk_mb": med(lambda r: r["disk"]) / 1e6,
            "rollback_ratio": med(lambda r: r["rollback_ratio"]),
        }

    def trace(self) -> dict[str, float] | None:
        self.setup()
        plain_out, traced_out = self.work / "plain", self.work / "traced"
        plain = self.command(self.generate_args(plain_out))
        if not self.expect("generate", plain.code == 0
                           and self.check_history(plain_out, "untraced generate")[1]):
            return None
        phases = {"generate": self.command(self.generate_args(traced_out), spans=True)}
        ok = phases["generate"].code == 0 and spans_ok("generate", phases["generate"])
        if ok:
            summary, ok = self.check_history(traced_out, "traced generate")
        if not self.expect("traced generate", ok):
            return None
        phases["validate"] = self.command(["validate", str(traced_out)], spans=True)
        self.expect("traced validate", phases["validate"].code == 0
                    and phases["validate"].stdout.strip() == "history valid"
                    and spans_ok("validate", phases["validate"]))
        phases["stats"] = self.command(["stats", str(traced_out)], spans=True)
        self.expect("traced stats", self.check_stats(phases["stats"], summary)
                    and spans_ok("stats", phases["stats"]))
        if any(cmd.spans is None for cmd in phases.values()):
            return None

        metrics: dict[str, float] = {}
        for phase, cmd in phases.items():
            spans = cmd.spans
            for fn in PHASE_FUNCTIONS[phase]:
                calls = spans["calls"].get(fn, 0)
                metrics[f"{phase}.{fn}.calls"] = calls
                metrics[f"{phase}.{fn}.total_s"] = spans["total_s"].get(fn, 0.0)
                metrics[f"{phase}.{fn}.self_s"] = spans["self_s"].get(fn, 0.0)
                if fn == "minilang.check_snapshot_dir":
                    metrics[f"{phase}.{fn}.repos"] = spans["repos_checked"] / max(calls, 1)
                if fn == "generators.generate":
                    metrics[f"{phase}.{fn}.none_ratio"] = spans["none_results"] / max(calls, 1)

        committed = summary["committed_total"]
        rolled_back = sum(summary["rolled_back"].values())
        iteration_ms = phases["generate"].spans["iteration_ms"]
        quarter = max(len(iteration_ms) // 4, 1)
        metrics.update({
            "runner.commits": committed,
            "runner.rollbacks": rolled_back,
            "runner.skips": sum(summary["skipped"].values()),
            "runner.commit_ratio": committed / (committed + rolled_back),
            "runner.iteration_ms.p50": statistics.median(iteration_ms),
            "runner.iteration_ms.p99": statistics.quantiles(iteration_ms, n=100)[98],
            "runner.iteration_growth": statistics.median(iteration_ms[-quarter:])
            / statistics.median(iteration_ms[:quarter]),
            "trace.overhead_ratio": phases["generate"].user_s / plain.user_s,
        })
        return metrics


def spans_ok(phase: str, cmd: Command) -> bool:
    """The traced child wrote its spans, removed every wrapper, and its self
    times sum to no more than the phase's wall time."""
    spans = cmd.spans
    problems = []
    if spans is None:
        problems.append("no spans written")
    else:
        if spans["left_installed"]:
            problems.append(f"wrappers left: {spans['left_installed']}")
        if sum(spans["self_s"].values()) > spans["wall_s"]:
            problems.append("self times exceed the wall time")
    for problem in problems:
        print(f"# traced {phase}: {problem}")
    return not problems


# -- history facts ----------------------------------------------------------------

def history_digest(out: Path) -> str:
    """sha256 over the relative path and bytes of every history file, in path
    order, leaving out the files outside the byte-identical contract."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        rel = path.relative_to(out).as_posix()
        if rel in UNHASHED:
            continue
        h.update(rel.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def disk_bytes(out: Path) -> int:
    """Blocks allocated under `out`, each inode counted once."""
    seen = set()
    total = 0
    for path in [out, *out.rglob("*")]:
        st = path.lstat()
        if (st.st_dev, st.st_ino) not in seen:
            seen.add((st.st_dev, st.st_ino))
            total += st.st_blocks * 512
    return total


def filesystem_of(path: Path) -> str:
    """Type of the file system holding `path`, from /proc/self/mountinfo."""
    best, fstype = "", "unknown"
    target = str(path.resolve())
    try:
        lines = Path("/proc/self/mountinfo").read_text().splitlines()
    except OSError:
        return fstype
    for line in lines:
        fields = line.split()
        mount_point = fields[4]
        sep = fields.index("-")
        if (target == mount_point or target.startswith(mount_point.rstrip("/") + "/")) \
                and len(mount_point) >= len(best):
            best, fstype = mount_point, fields[sep + 1]
    return fstype


# -- entry point ------------------------------------------------------------------

def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (CHECKOUT / "src" / "evogen" / "cli.py").is_file():
        print(f"perfbench: no evogen sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, work)
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace};"
          f" python {platform.python_version()}, nproc {os.cpu_count()},"
          f" work dir on {filesystem_of(work)}")
    try:
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if metrics is None:
        print(f"perfbench: no repetition passed: {bench.failures}", file=sys.stderr)
        return 1
    spec = per_layer_spec() if args.trace else END_TO_END
    failed = len(bench.failures)
    for failure in bench.failures:
        print(f"# failed: {failure}")
    for name, unit in spec:
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(f"failed_ops_ratio {failed / bench.attempted:.6g} ({failed} of {bench.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
