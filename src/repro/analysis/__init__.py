"""Analysis utilities: aggregate metrics, the area model, report tables."""

from repro.analysis.area import AreaModel
from repro.analysis.metrics import geometric_mean
from repro.analysis.report import format_table

__all__ = ["AreaModel", "geometric_mean", "format_table"]
