"""Command-line front end: ``monitor run`` and ``monitor replay-trace``.

Exit codes: 0 success, 1 runtime failure (unreadable input, bad snapshot,
failed trace checkpoint), 2 invalid configuration or an output naming an input
or the other output. Every failure of ``monitor run`` prints one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Any

from .detector import ConfigError, DetectorConfig
from .stream import alert_to_json, dump_state, restore_state, run_monitor, RestoreError
from .trace import format_trace_result, run_trace

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

UNIFORM_DENSITY = 1.0 / 1440.0

_BOOL_WORDS = {"true": True, "false": False}


def boolean(text: str) -> bool:
    """``true`` or ``false`` in any case; argparse names this parser in its
    errors (``invalid boolean value: 'maybe'``)."""
    try:
        return _BOOL_WORDS[text.lower()]
    except KeyError:
        raise ValueError(f"expected true or false, got {text!r}") from None


# config-file key -> (dataclass field, parser, help); each key is also the
# ``monitor run`` override flag "--" + field.replace("_", "-").
_CONFIG_KEYS = {
    "n": ("n", int, "minimum window weeks"),
    "k": ("k", int, "minimum window events"),
    "threshold": ("threshold", float, "alert density threshold"),
    "max_gap_weeks": ("max_gap_weeks", int, "stale-week rejection distance"),
    "bandwidth.method": ("bandwidth_method", str,
                         "bandwidth selection method: silverman or fixed"),
    "bandwidth.value": ("bandwidth_value", float, "fixed bandwidth in minutes"),
    "circular": ("circular", boolean, "wrap minute distances around midnight: true or false"),
}


def parse_config_text(text: str) -> dict[str, Any]:
    """Parse the flat ``key = value`` config format into dataclass fields.
    A ``#`` starts a comment, on its own line or after a value."""
    values: dict[str, Any] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        field, parse, _ = _CONFIG_KEYS[key]
        try:
            values[field] = parse(value.strip())
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
    for field, parse, what in _CONFIG_KEYS.values():
        run.add_argument("--" + field.replace("_", "-"), type=parse, help="override: " + what)

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
            fh.write(json.dumps(snapshot))  # the C encoder; json.dump's is pure Python
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _file_id(path: str | int) -> object:
    """(device, inode) of an existing file or descriptor, else the real path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path) if isinstance(path, str) else object()
    return st.st_dev, st.st_ino


class _Failure(Exception):
    """Ends ``monitor run``: ``main`` prints ``error: <message>``, returns ``code``.
    Not an OSError, so the input-read handler passes one from an alert write."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _cmd_run(args: argparse.Namespace) -> int:
    # An output naming an input destroys it unread, and alerts naming the
    # snapshot are replaced by it (--state-out is written last).
    source = 0 if args.input == "-" else args.input
    alerts = None if args.alerts == "-" else args.alerts
    for out, inputs in ((alerts, (source, args.config, args.state_in)),
                        (args.state_out, (source, args.config))):
        if out is not None and any(i is not None and _file_id(i) == _file_id(out)
                                   for i in inputs):
            raise _Failure(EXIT_CONFIG, f"output {out} is also an input file")
    if None not in (args.state_out, alerts) and _file_id(alerts) == _file_id(args.state_out):
        raise _Failure(EXIT_CONFIG, f"--alerts and --state-out name the same file {alerts}")
    overrides = {field: value for field, _, _ in _CONFIG_KEYS.values()
                 if (value := getattr(args, field)) is not None}
    config = load_config(args.config, overrides)  # ConfigError: main exits 2

    initial_users = None
    if args.state_in is not None:
        try:
            with open(args.state_in, "r", encoding="utf-8") as fh:
                restored = restore_state(fh.read())
        except OSError as exc:
            raise _Failure(EXIT_RUNTIME, f"cannot read state file {args.state_in}: {exc}")
        except RestoreError as exc:
            raise _Failure(EXIT_RUNTIME, f"bad state file {args.state_in}: {exc}")
        if (args.config is not None or overrides) and restored.config != config:
            print("warning: requested configuration differs from the snapshot's; "
                  "using the snapshot configuration for state consistency",
                  file=sys.stderr)
        config = restored.config
        initial_users = restored.export_users()

    _warn_threshold(config)

    with contextlib.ExitStack() as files:
        try:  # strict UTF-8 whatever the locale; fd 0 stays open (EBADF if closed)
            source = files.enter_context(open(source, encoding="utf-8", closefd=source != 0))
        except OSError as exc:
            raise _Failure(EXIT_RUNTIME, f"cannot read input {args.input}: {exc}")
        try:
            alert_file = (sys.stdout if alerts is None
                          else files.enter_context(open(alerts, "w", encoding="utf-8")))
        except OSError as exc:
            raise _Failure(EXIT_RUNTIME, f"cannot write alerts to {args.alerts}: {exc}")

        def emit(alert) -> None:
            try:
                alert_file.write(alert_to_json(alert) + "\n")
                alert_file.flush()
            except OSError as exc:
                raise _Failure(EXIT_RUNTIME, f"cannot write alerts to {args.alerts}: {exc}")

        try:
            stats, engines = run_monitor(source, config, emit,
                                         initial_users=initial_users)
        except (UnicodeDecodeError, OSError) as exc:
            raise _Failure(EXIT_RUNTIME, f"cannot read input {args.input}: {exc}")

    if args.state_out is not None:
        try:
            _write_state(args.state_out, dump_state(engines))
        except OSError as exc:
            raise _Failure(EXIT_RUNTIME, f"cannot write state to {args.state_out}: {exc}")

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
    if args.command != "run":
        return _cmd_replay_trace()
    try:
        return _cmd_run(args)
    except (_Failure, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, _Failure) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
