"""Command-line front end: ``monitor run`` and ``monitor replay-trace``.

Exit codes: 0 success, 1 runtime failure (unreadable input, bad snapshot,
failed trace checkpoint), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import Any, TextIO

from .detector import ConfigError, DetectorConfig
from .stream import alert_to_json, dump_state, restore_state, run_monitor, RestoreError
from .trace import format_trace_result, run_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

UNIFORM_DENSITY = 1.0 / 1440.0

# config-file key -> (dataclass field, parser)
_BOOL_WORDS = {"true": True, "false": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"expected true or false, got {text!r}") from None


_CONFIG_KEYS = {
    "n": ("n", int),
    "k": ("k", int),
    "threshold": ("threshold", float),
    "max_gap_weeks": ("max_gap_weeks", int),
    "bandwidth.method": ("bandwidth_method", str),
    "bandwidth.value": ("bandwidth_value", float),
    "circular": ("circular", _parse_bool),
}


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse the flat ``key = value`` config format into dataclass fields."""
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        field, parse = _CONFIG_KEYS[key]
        try:
            values[field] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"config line {lineno}: bad value for {key}: {exc}") from exc
    return values


def load_config(path: str | None, overrides: dict[str, Any]) -> DetectorConfig:
    values: dict[str, Any] = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                values.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    values.update(overrides)
    return DetectorConfig.from_dict(values)


def _collect_overrides(args: argparse.Namespace) -> dict[str, Any]:
    overrides: dict[str, Any] = {}
    for field in ("n", "k", "threshold", "max_gap_weeks",
                  "bandwidth_method", "bandwidth_value"):
        value = getattr(args, field)
        if value is not None:
            overrides[field] = value
    if args.circular is not None:
        overrides["circular"] = _parse_bool(args.circular)
    return overrides


def _warn_threshold(config: DetectorConfig) -> None:
    if config.threshold >= UNIFORM_DENSITY:
        print(f"warning: threshold {config.threshold:g} is at or above the uniform "
              f"density 1/1440 = {UNIFORM_DENSITY:.3g}; a user whose activity is "
              f"spread evenly over the day would alert on every event",
              file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="monitor",
        description="Per-user activity anomaly monitor over line-delimited JSON events.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="stream events through the monitor")
    run.add_argument("--input", required=True,
                     help="path to line-delimited JSON events, or - for stdin")
    run.add_argument("--config", default=None,
                     help="flat key=value config file (defaults apply if omitted)")
    run.add_argument("--alerts", required=True,
                     help="path for line-delimited JSON alerts, or - for stdout")
    run.add_argument("--state-out", default=None, help="write a state snapshot here")
    run.add_argument("--state-in", default=None, help="resume from this snapshot")
    run.add_argument("--stats", action="store_true",
                     help="print run statistics as JSON to stderr")
    run.add_argument("--n", type=int, default=None, help="override: minimum window weeks")
    run.add_argument("--k", type=int, default=None, help="override: minimum window events")
    run.add_argument("--threshold", type=float, default=None,
                     help="override: alert density threshold")
    run.add_argument("--max-gap-weeks", dest="max_gap_weeks", type=int, default=None,
                     help="override: stale-week rejection distance")
    run.add_argument("--bandwidth-method", dest="bandwidth_method",
                     choices=("silverman", "fixed"), default=None,
                     help="override: bandwidth selection method")
    run.add_argument("--bandwidth-value", dest="bandwidth_value", type=float,
                     default=None, help="override: fixed bandwidth in minutes")
    run.add_argument("--circular", choices=("true", "false"), default=None,
                     help="override: wrap minute distances around midnight")

    sub.add_parser("replay-trace",
                   help="replay the built-in reference trace and print checkpoints")
    return parser


def _write_state(path: str, snapshot: dict[str, Any]) -> None:
    """Write ``snapshot`` to a temporary file beside ``path`` and rename it
    into place, so a failed write leaves any previous snapshot intact (the
    same file may be both ``--state-in`` and ``--state-out``)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


class _AlertWriteError(Exception):
    """Writing an alert failed; keeps sink errors apart from input errors."""


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config, _collect_overrides(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    initial_users = None
    if args.state_in is not None:
        try:
            with open(args.state_in, "r", encoding="utf-8") as fh:
                restored = restore_state(fh.read())
        except OSError as exc:
            print(f"error: cannot read state file {args.state_in}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except RestoreError as exc:
            print(f"error: bad state file {args.state_in}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        if restored.config != config:
            print("warning: requested configuration differs from the snapshot's; "
                  "using the snapshot configuration for state consistency",
                  file=sys.stderr)
        config = restored.config
        initial_users = restored.export_users()

    _warn_threshold(config)

    opened: list[TextIO] = []
    borrowed: io.TextIOWrapper | None = None
    try:
        if args.input == "-":
            # Strict UTF-8 whatever the locale, as a file is read. Detached,
            # not closed, at the end, so stdin itself stays open.
            borrowed = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
            source: TextIO = borrowed
        else:
            try:
                source = open(args.input, "r", encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot read input {args.input}: {exc}", file=sys.stderr)
                return EXIT_RUNTIME
            opened.append(source)
        if args.alerts == "-":
            alert_file: TextIO = sys.stdout
        else:
            try:
                alert_file = open(args.alerts, "w", encoding="utf-8")
            except OSError as exc:
                print(f"error: cannot write alerts to {args.alerts}: {exc}", file=sys.stderr)
                return EXIT_RUNTIME
            opened.append(alert_file)

        def emit(alert) -> None:
            try:
                alert_file.write(alert_to_json(alert) + "\n")
                alert_file.flush()
            except OSError as exc:
                raise _AlertWriteError(exc) from exc

        try:
            stats, engines = run_monitor(source, config, emit,
                                         initial_users=initial_users)
        except _AlertWriteError as exc:
            print(f"error: cannot write alerts to {args.alerts}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except (UnicodeDecodeError, OSError) as exc:
            print(f"error: cannot read input {args.input}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
    finally:
        for fh in opened:
            fh.close()
        if borrowed is not None:
            borrowed.detach()

    if args.state_out is not None:
        try:
            _write_state(args.state_out, dump_state(engines))
        except OSError as exc:
            print(f"error: cannot write state to {args.state_out}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME

    if args.stats:
        print(json.dumps(stats.to_dict()), file=sys.stderr)
    else:
        print(f"processed {stats.events_processed}/{stats.events_read} events "
              f"({stats.events_malformed} malformed), {stats.users_seen} users, "
              f"{stats.profiles_computed} profile fits, "
              f"{stats.alerts_emitted} alerts in {stats.wall_time_s:.2f}s",
              file=sys.stderr)
    return EXIT_OK


def _cmd_replay_trace() -> int:
    result = run_trace()
    print(format_trace_result(result))
    return EXIT_OK if result.passed else EXIT_RUNTIME


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_replay_trace()


if __name__ == "__main__":
    sys.exit(main())
