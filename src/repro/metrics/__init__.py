"""Metrics: acquisition records, drop rates, latency, message counts."""

from .collector import MetricsCollector
from .log import AcquisitionLog, AcquisitionRecord, LabelTableFull

__all__ = ["AcquisitionLog", "AcquisitionRecord", "LabelTableFull", "MetricsCollector"]
