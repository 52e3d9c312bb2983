"""Deterministic generator of synthetic version histories for variant-rich
software systems, with ground-truth meta-data (feature locations, clone
traces, replayable operation records)."""

__version__ = "0.1.0"

#: the shipped probability presets that ``runner.preset`` builds; kept here
#: so that the command line offers them without importing the runner
PRESET_NAMES = ("uniform-generators", "uniform-operations", "growing-system")
