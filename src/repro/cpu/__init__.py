"""Core timing model and the instruction record.

:mod:`repro.cpu.core` is the ROB-window approximation of the paper's OoO
cores, and :mod:`repro.cpu.trace` defines the instruction record that
every workload generator emits.
"""

from repro.cpu.core import CoreTimingModel
from repro.cpu.trace import TraceRecord

__all__ = ["CoreTimingModel", "TraceRecord"]
