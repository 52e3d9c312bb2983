"""Outside-in layer spans for evogen: timing wrappers installed from here.

Nothing under ``src/`` is edited.  Each traced function is replaced, at every
binding a caller looks it up through, by one wrapper that counts calls and
accumulates total and self time (total minus the time of nested wrapped
calls).  Names bound with ``from .x import f`` are patched in every importing
module; late ``from .x import f`` inside a function body resolves through the
module attribute, so patching the defining module covers it.  ``install``
refuses to run when some evogen module holds a binding of a traced function
that the table below does not patch, so a new import cannot escape the
trace silently.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from types import ModuleType

PACKAGE = "evogen"

#: metric name -> the (module, attribute) bindings callers look it up by;
#: a dotted attribute names a method on a class of that module
TRACED = {
    "runner.run": [("cli", "run"), ("runner", "run")],
    "runner.select_generator": [("runner", "select_generator")],
    "generators.generate": [("runner", "generate"), ("generators", "generate")],
    "operations.run_in_transaction": [("runner", "run_in_transaction"),
                                      ("operations", "run_in_transaction")],
    "operations.execute": [("operations", "execute"), ("history", "execute")],
    "transplant.legal_insertion_points": [("generators", "legal_insertion_points"),
                                          ("transplant", "legal_insertion_points")],
    "transplant.extract_organ": [("generators", "extract_organ"),
                                 ("transplant", "extract_organ")],
    "transplant.apply_transplant_feature": [("transplant", "apply_transplant_feature")],
    "refs.make_asset_ref": [("refs", "make_asset_ref"), ("operations", "make_asset_ref"),
                            ("history", "make_asset_ref"), ("generators", "make_asset_ref"),
                            ("transplant", "make_asset_ref")],
    "model.AssetTree.path_to": [("model", "AssetTree.path_to")],
    "model.AssetTree.clone": [("model", "AssetTree.clone")],
    "model.AssetTree.corresponding_asset": [("model", "AssetTree.corresponding_asset")],
    "history.materialize_tree": [("history", "materialize_tree")],
    "history.write_snapshot": [("runner", "write_snapshot"), ("history", "write_snapshot")],
    "history.append_ledger": [("runner", "append_ledger"), ("history", "append_ledger")],
    "history.append_traces": [("runner", "append_traces"), ("history", "append_traces")],
    "history.feature_state": [("history", "feature_state")],
    "history.write_feature_state": [("runner", "write_feature_state"),
                                    ("history", "write_feature_state")],
    "history.validate_history": [("cli", "validate_history"),
                                 ("history", "validate_history")],
    "minilang.check_snapshot_dir": [("runner", "check_snapshot_dir"),
                                    ("minilang", "check_snapshot_dir")],
    "stats.compute_metrics": [("cli", "compute_metrics"), ("stats", "compute_metrics")],
    "stats.metric_row": [("stats", "metric_row")],
}


def _owner(module: ModuleType, attr: str):
    """The object holding `attr` (a class for ``Class.method``) and its name."""
    owner_name, _, name = attr.rpartition(".")
    return (getattr(module, owner_name) if owner_name else module), name


class Tracer:
    """Counts, total and self time per traced function, plus the counters
    the per-layer metrics derive from."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.none_results = 0      # generators.generate returned no candidate
        self.repos_checked = 0     # repositories seen by check_snapshot_dir
        self.iteration_starts: list[float] = []
        self.run_end: float | None = None
        self._child_s: list[float] = []   # per open span: time in nested spans
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn):
        counts_repos = name == "minilang.check_snapshot_dir"
        marks_iteration = name == "runner.select_generator"
        ends_run = name == "runner.run"
        counts_none = name == "generators.generate"

        def wrapper(*args, **kwargs):
            if counts_repos:
                self.repos_checked += sum(1 for p in Path(args[0]).iterdir() if p.is_dir())
            self._child_s.append(0.0)
            start = time.perf_counter()
            if marks_iteration:
                self.iteration_starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                nested = self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
                self.calls[name] = self.calls.get(name, 0) + 1
                self.total_s[name] = self.total_s.get(name, 0.0) + elapsed
                self.self_s[name] = self.self_s.get(name, 0.0) + elapsed - nested
                if ends_run:
                    self.run_end = end
            if counts_none and result is None:
                self.none_results += 1
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Patch every binding in TRACED; raise if one is missing or some
        evogen module binds a traced function that TRACED does not list."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name, sites in TRACED.items():
            found = {id(getattr(*_owner(_module(m), a))) for m, a in sites}
            if len(found) != 1:
                raise RuntimeError(f"{name}: bindings disagree: {sites}")
            owner, attr = _owner(_module(sites[0][0]), sites[0][1])
            originals[id(getattr(owner, attr))] = name
        _check_no_unlisted_bindings(originals)
        try:
            for name, sites in TRACED.items():
                owner, attr = _owner(_module(sites[0][0]), sites[0][1])
                wrapper = self.wrap(name, getattr(owner, attr))
                for module_name, site in sites:
                    owner, attr = _owner(_module(module_name), site)
                    self._saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def iteration_ms(self) -> list[float]:
        """Wall time of each runner iteration: from one generator selection to
        the next, the last one ending when runner.run returns."""
        marks = list(self.iteration_starts)
        if marks and self.run_end is not None:
            marks.append(self.run_end)
        return [(b - a) * 1000.0 for a, b in zip(marks, marks[1:])]


def _module(name: str) -> ModuleType:
    full = f"{PACKAGE}.{name}"
    if full not in sys.modules:
        __import__(full)
    return sys.modules[full]


def _check_no_unlisted_bindings(originals: dict[int, str]) -> None:
    listed = {(f"{PACKAGE}.{m}", a) for sites in TRACED.values() for m, a in sites}
    for mod_name, module in list(sys.modules.items()):
        if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
            continue
        for attr, value in vars(module).items():
            if id(value) in originals and (mod_name, attr) not in listed:
                raise RuntimeError(f"{mod_name}.{attr} binds {originals[id(value)]}"
                                   " but is not patched")


def installed_wrappers() -> list[str]:
    """Bindings in TRACED that currently hold a wrapper (empty when clean)."""
    left = []
    for sites in TRACED.values():
        for module_name, site in sites:
            owner, attr = _owner(_module(module_name), site)
            if hasattr(getattr(owner, attr), "perfbench_span"):
                left.append(f"{module_name}.{site}")
    return left
