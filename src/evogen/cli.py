"""Command-line entry points: generate, stats, validate, replay.

Each command imports the modules it runs when it runs: ``--help`` loads no
evogen module beyond this one and ``errors``, and ``stats``, ``validate``
and ``replay`` read a history without loading the runner or the generators.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import PRESET_NAMES
from .errors import (EvogenError, InvalidInitialSystem, LedgerIoError,
                     ReplayDivergence, SnapshotIoError, utf8_text)


def __getattr__(name: str):
    """``cli.run``, ``cli.validate_history`` and ``cli.compute_metrics``,
    imported on first access.  Only perfbench/tracer.py reads them: it
    patches these bindings and refuses to install when one is missing, so
    they stay until the benchmark drops the tracer."""
    if name == "run":
        from .runner import run
        return run
    if name == "validate_history":
        from .history import validate_history
        return validate_history
    if name == "compute_metrics":
        from .stats import compute_metrics
        return compute_metrics
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _say(message: str, err: bool = False, end: str = "\n") -> None:
    """Write one message and flush it at once, so its bytes are written
    before any exit handler of the process runs."""
    print(message, end=end, file=sys.stderr if err else sys.stdout, flush=True)


def _read_config(parser: argparse.ArgumentParser, value: str | None) -> dict | None:
    """The mapping the YAML file named by --config holds.  A file that cannot
    be read, is not UTF-8 YAML, or whose top level or `checker` is not a
    mapping is a usage error: exit 2 with a message naming the file."""
    if value is None:
        return None
    import yaml
    from pathlib import Path
    bad = "Invalid value for '--config': "
    try:
        data = yaml.safe_load(utf8_text(Path(value).read_bytes(), value)) or {}
    except SnapshotIoError as exc:
        parser.error(f"{bad}{exc}")
    except (OSError, yaml.YAMLError) as exc:
        parser.error(f"{bad}{value}: {exc}")
    if not isinstance(data, dict) or not isinstance(data.get("checker", {}), dict):
        parser.error(f"{bad}{value}: its top level and checker must be mappings")
    return data


def _history_dir(parser: argparse.ArgumentParser, value: str):
    """OUT_DIR as a Path; a usage error unless it is an existing directory."""
    if not os.path.exists(value):
        parser.error(f"Invalid value for 'OUT_DIR': Directory '{value}' does not exist.")
    if not os.path.isdir(value):
        parser.error(f"Invalid value for 'OUT_DIR': Directory '{value}' is a file.")
    from pathlib import Path
    return Path(value)


def generate(parser: argparse.ArgumentParser, options: argparse.Namespace) -> int:
    """Evolve the initial system and write a version history."""
    config_data = _read_config(parser, options.config)
    from pathlib import Path

    from .runner import RunConfig, preset, run
    try:
        config = preset(options.preset) if options.preset else RunConfig()
        if config_data is not None:
            base = config.to_dict()
            checker = {**base["checker"], **config_data.get("checker", {})}
            config = RunConfig.from_dict(base | config_data | {"checker": checker})
        if options.seed is not None:
            config.seed = options.seed
        for path in (options.system, *options.donor):
            if not Path(path).is_dir():
                raise InvalidInitialSystem(f"no such directory: {path}")
        summary = run(config, Path(options.system), [Path(p) for p in options.donor],
                      Path(options.out))
    except InvalidInitialSystem as exc:
        _say(f"invalid initial system: {exc}", err=True)
        return 2
    except (LedgerIoError, SnapshotIoError, OSError) as exc:
        _say(f"i/o failure, history truncated: {exc}", err=True)
        return 3
    except EvogenError as exc:
        _say(f"error: {exc}", err=True)
        return 2
    _say(f"committed {summary.committed_total} operations over "
         f"{summary.iterations_run} iterations -> {options.out}")
    return 0


def stats(parser: argparse.ArgumentParser, options: argparse.Namespace) -> int:
    """Per-revision feature counts and LoC per variant."""
    out_dir = _history_dir(parser, options.out_dir)
    import json

    from .minilang import MinilangAdapter
    from .stats import compute_metrics, rows_to_csv, rows_to_long
    try:
        rows = compute_metrics(out_dir, MinilangAdapter())
    except (EvogenError, OSError, json.JSONDecodeError) as exc:
        _say(f"invalid history: {exc}", err=True)
        return 4
    table = rows_to_long(rows) if options.long else rows_to_csv(rows)
    if options.output is None:
        _say(table, end="")
        return 0
    try:
        with open(options.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(table)
    except OSError as exc:
        _say(f"i/o failure: {exc}", err=True)
        return 3
    return 0


def validate(parser: argparse.ArgumentParser, options: argparse.Namespace) -> int:
    """Check every record, snapshot and trace against the replay, and compilability."""
    out_dir = _history_dir(parser, options.out_dir)
    import json

    from .history import validate_history
    from .minilang import MinilangAdapter
    report = validate_history(out_dir, MinilangAdapter())
    report_path = out_dir / "validation.json"
    try:
        report_path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1)
                               + "\n", encoding="utf-8", newline="\n")
    except OSError as exc:
        _say(f"i/o failure: {exc}", err=True)
        return 3
    if report.ok:
        _say("history valid")
        return 0
    _say(f"{len(report.violations)} violations, report at {report_path}", err=True)
    return 1


def replay(parser: argparse.ArgumentParser, options: argparse.Namespace) -> int:
    """Re-execute the ledger from revision 0 and report the final state."""
    out_dir = _history_dir(parser, options.out_dir)
    from .history import replay_history
    from .minilang import MinilangAdapter
    try:
        for revision, tree in replay_history(out_dir, MinilangAdapter()):
            pass
    except (ReplayDivergence, SnapshotIoError) as exc:
        _say(str(exc), err=True)
        return 1
    _say(f"replayed to revision {revision} ({len(tree.repositories)} repositories)")
    return 0


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False, description="Deterministic generator of"
        " synthetic version histories for variant-rich software.")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND")

    def command(function) -> argparse.ArgumentParser:
        summary = function.__doc__
        sub = commands.add_parser(function.__name__, help=summary, description=summary,
                                  allow_abbrev=False)
        sub.set_defaults(command=function, parser=sub)
        return sub

    sub = command(generate)
    sub.add_argument("--config", metavar="PATH", help="YAML run configuration.")
    sub.add_argument("--preset", choices=PRESET_NAMES,
                     help="Shipped probability preset.")
    sub.add_argument("--system", metavar="PATH", required=True,
                     help="Initial system directory (first revision).")
    sub.add_argument("--donor", metavar="PATH", action="append", default=[],
                     help="Donor project directory (repeatable).")
    sub.add_argument("--out", metavar="PATH", required=True,
                     help="Output history directory.")
    sub.add_argument("--seed", type=int, help="Overrides the config seed.")

    sub = command(stats)
    sub.add_argument("out_dir", metavar="OUT_DIR")
    sub.add_argument("--long", action="store_true",
                     help="Emit the plot-ready long format instead of the wide table.")
    sub.add_argument("--output", metavar="PATH",
                     help="Write the table to a file instead of stdout.")

    for function in (validate, replay):
        command(function).add_argument("out_dir", metavar="OUT_DIR")
    return parser


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command `args` names (default: ``sys.argv[1:]``) and end in
    SystemExit with its exit code: 0 on success, 2 on a usage error."""
    parser = _parser(prog_name or "evogen")
    options = parser.parse_args(args)
    if not hasattr(options, "command"):
        parser.print_help()
        sys.exit(2)
    sys.exit(options.command(options.parser, options))


if __name__ == "__main__":
    main()
