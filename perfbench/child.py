"""Run one evogen command in this process, as the ``evogen`` console script
does, and report what the parent process cannot see from outside.

    python3 perfbench/child.py IO_FILE [--spans SPANS_FILE] -- EVOGEN_ARGS...

At exit IO_FILE receives this process's ``/proc/self/io``; its ``wchar`` is
the number of bytes the command handed to ``write()``.  With ``--spans`` the
command runs under the tracer, and SPANS_FILE receives the per-function
counts and times, the phase wall time and whether every wrapper came off.
"""

from __future__ import annotations

import atexit
import json
import sys
import time
from pathlib import Path


def _dump_io(io_file: str) -> None:
    with open("/proc/self/io", encoding="ascii") as fh:
        data = fh.read()
    Path(io_file).write_text(data, encoding="ascii")


def main(argv: list[str]) -> None:
    split = argv.index("--")
    opts, evogen_args = argv[:split], argv[split + 1:]
    io_file = opts[0]
    spans_file = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    atexit.register(_dump_io, io_file)

    from evogen.cli import main as evogen_main
    if spans_file is None:
        evogen_main(args=evogen_args, prog_name="evogen")
        return

    from tracer import Tracer, installed_wrappers
    tracer = Tracer()
    tracer.install()
    code = 0
    start = time.perf_counter()
    try:
        tracer.wrap("cli.main", evogen_main)(args=evogen_args, prog_name="evogen")
    except SystemExit as exc:
        code = exc.code
    finally:
        wall = time.perf_counter() - start
        tracer.uninstall()
        spans = {
            "wall_s": wall,
            "calls": tracer.calls,
            "total_s": tracer.total_s,
            "self_s": tracer.self_s,
            "none_results": tracer.none_results,
            "repos_checked": tracer.repos_checked,
            "iteration_ms": tracer.iteration_ms(),
            "left_installed": installed_wrappers(),
        }
        Path(spans_file).write_text(json.dumps(spans), encoding="utf-8")
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
