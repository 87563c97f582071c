"""Streaming per-user activity anomaly monitor.

Events are grouped per user and per ISO calendar week. Each user gets an
isolated detector instance that maintains a sliding window of training
weeks, fits a kernel-density profile of activity over the 1440 minutes of
the day, and flags events whose minute-of-day density falls at or below a
threshold. The composition (one detector per user, training and alerting
fed the same event) is expressed with a small state-machine algebra,
which the engine runs through its interpreter; see `astd_monitor.astd`.
"""

from astd_monitor.detector import (
    AlertRecord,
    ConfigError,
    DetectorConfig,
    EntityState,
    MonitorEngine,
)
from astd_monitor.kde import KdeProfile
from astd_monitor.stream import (
    MalformedRecord,
    ParsedEvent,
    RestoreError,
    RunStats,
    dump_state,
    parse_record,
    restore_state,
    run_monitor,
)

__all__ = [
    "AlertRecord",
    "ConfigError",
    "DetectorConfig",
    "EntityState",
    "KdeProfile",
    "MalformedRecord",
    "MonitorEngine",
    "ParsedEvent",
    "RestoreError",
    "RunStats",
    "dump_state",
    "parse_record",
    "restore_state",
    "run_monitor",
]

__version__ = "0.1.0"
