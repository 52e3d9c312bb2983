"""Command-line entry points: generate, stats, validate, replay."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click
import yaml

from .errors import (EvogenError, InvalidInitialSystem, LedgerIoError,
                     ReplayDivergence, SnapshotIoError)
from .history import replay_history, validate_history
from .minilang import MinilangAdapter
from .runner import PRESET_NAMES, RunConfig, preset, run
from .stats import compute_metrics, rows_to_csv, rows_to_long


def _load_config(config_path, preset_name, seed):
    if preset_name:
        config = preset(preset_name)
    else:
        config = RunConfig()
    if config_path:
        data = yaml.safe_load(Path(config_path).read_text()) or {}
        base = config.to_dict()
        base.update({k: v for k, v in data.items() if k != "checker"})
        if "checker" in data:
            base["checker"] = {**base["checker"], **data["checker"]}
        config = RunConfig.from_dict(base)
    if seed is not None:
        config.seed = seed
    return config


@click.group()
def main():
    """Deterministic generator of synthetic version histories for
    variant-rich software."""


@main.command()
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="YAML run configuration.")
@click.option("--preset", "preset_name", type=click.Choice(PRESET_NAMES),
              default=None, help="Shipped probability preset.")
@click.option("--system", "system_path", type=click.Path(), required=True,
              help="Initial system directory (first revision).")
@click.option("--donor", "donor_paths", type=click.Path(), multiple=True,
              help="Donor project directory (repeatable).")
@click.option("--out", "out_dir", type=click.Path(), required=True,
              help="Output history directory.")
@click.option("--seed", type=int, default=None, help="Overrides the config seed.")
def generate(config_path, preset_name, system_path, donor_paths, out_dir, seed):
    """Evolve the initial system and write a version history."""
    try:
        config = _load_config(config_path, preset_name, seed)
        for path in (system_path, *donor_paths):
            if not Path(path).is_dir():
                raise InvalidInitialSystem(f"no such directory: {path}")
        summary = run(config, Path(system_path), [Path(p) for p in donor_paths],
                      Path(out_dir))
    except InvalidInitialSystem as exc:
        click.echo(f"invalid initial system: {exc}", err=True)
        sys.exit(2)
    except (LedgerIoError, SnapshotIoError, OSError) as exc:
        click.echo(f"i/o failure, history truncated: {exc}", err=True)
        sys.exit(3)
    except EvogenError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    click.echo(f"committed {summary.committed_total} operations over "
               f"{summary.iterations_run} iterations -> {out_dir}")


@main.command()
@click.argument("out_dir", type=click.Path(exists=True))
@click.option("--long", "long_format", is_flag=True,
              help="Emit the plot-ready long format instead of the wide table.")
@click.option("--output", type=click.Path(), default=None,
              help="Write the table to a file instead of stdout.")
def stats(out_dir, long_format, output):
    """Per-revision feature counts and LoC per variant."""
    try:
        rows = compute_metrics(Path(out_dir), MinilangAdapter())
    except (EvogenError, OSError, json.JSONDecodeError) as exc:
        click.echo(f"invalid history: {exc}", err=True)
        sys.exit(4)
    table = rows_to_long(rows) if long_format else rows_to_csv(rows)
    if output:
        Path(output).write_text(table, encoding="utf-8", newline="\n")
    else:
        click.echo(table, nl=False)


@main.command()
@click.argument("out_dir", type=click.Path(exists=True))
def validate(out_dir):
    """Check replay fidelity, ref resolvability and per-snapshot compilability."""
    report = validate_history(Path(out_dir), MinilangAdapter())
    report_path = Path(out_dir) / "validation.json"
    report_path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1)
                           + "\n", encoding="utf-8", newline="\n")
    if report.ok:
        click.echo("history valid")
        return
    click.echo(f"{len(report.violations)} violations, report at {report_path}",
               err=True)
    sys.exit(1)


@main.command()
@click.argument("out_dir", type=click.Path(exists=True))
def replay(out_dir):
    """Re-execute the ledger from revision 0 and report the final state."""
    try:
        for revision, tree in replay_history(Path(out_dir), MinilangAdapter()):
            pass
    except ReplayDivergence as exc:
        click.echo(str(exc), err=True)
        sys.exit(1)
    click.echo(f"replayed to revision {revision} "
               f"({len(tree.repositories)} repositories)")


if __name__ == "__main__":
    main()
