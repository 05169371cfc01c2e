"""Experiment harness: cell planning and execution, figure/table drivers,
reporting."""

from repro.harness.executor import Executor, RunSpec, make_spec
from repro.harness.report import (apki_classes, format_series, format_table,
                                  geomean, set_geomeans, set_members)

__all__ = [
    "Executor", "RunSpec", "make_spec",
    "apki_classes", "format_series", "format_table", "geomean",
    "set_geomeans", "set_members",
]
