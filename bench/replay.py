"""Closed-loop replay of a corpus file through the public ``run_monitor`` API.

One pass replays the whole file with ``workers=1``. A single feeder hands
``run_monitor`` the next line only when it asks for one, as
``monitor run --input FILE`` does on a backlog. At the workload's
checkpoint week the pass does what ``--state-out`` and ``--state-in`` do:
``dump_state``, JSON text, ``restore_state``, then resume with
``initial_users``.

Every call into the program goes through a module attribute
(``stream.run_monitor``, ``stream.dump_state``, ...) so that the traced run
can swap in timing wrappers from outside the program.
"""

from __future__ import annotations

import hashlib
import json
import time
from array import array
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator

from astd_monitor import stream
from astd_monitor.detector import DetectorConfig


def encode_snapshot(doc: dict) -> str:
    """The JSON text ``--state-out`` writes."""
    return json.dumps(doc)


class Feeder:
    """Closed-loop source that times each line's service.

    A line's service time runs from handing it to ``run_monitor`` until
    ``run_monitor`` asks for the next one: parsing, the step and alert
    emission. Reading the file is outside it; ``charge`` (the tracer's)
    receives the read time so that it is not booked to ``run_monitor``.
    """

    def __init__(self, lines: Iterable[str], service_ns: array,
                 charge: Callable[[int], None] | None = None):
        self._lines = lines
        self._service_ns = service_ns
        self._charge = charge
        self.first_pull_ns = 0

    def __iter__(self) -> Iterator[str]:
        clock = time.perf_counter_ns
        record = self._service_ns.append
        charge = self._charge
        done = self.first_pull_ns = clock()
        for line in self._lines:
            start = clock()
            if charge is not None:
                charge(start - done)
            yield line
            done = clock()
            record(done - start)


@dataclass
class PassResult:
    lines: int
    events: int                 # lines that parsed, as RunStats.events_processed
    malformed: int
    ingest_s: float             # both halves, checkpoint excluded
    checkpoint_s: float         # dump, encode, restore, export and re-adoption
    service_ns: array
    digest: str                 # sha256 of the alert lines as the CLI writes them
    watched: dict[str, list[str]]  # alert ids of the watched users
    snapshot_bytes: int            # checkpoint JSON, 0 without a checkpoint
    snapshot_users: int
    final_users: dict              # user -> EntityState, if asked for


def replay_pass(path: Path, cut_line: int, config: DetectorConfig, *,
                checkpoint: bool = True, watch: Iterable[str] = (),
                snapshot_out: Path | None = None,
                charge: Callable[[int], None] | None = None,
                keep_final_users: bool = False) -> PassResult:
    """Replay ``path`` once; checkpoint after ``cut_line`` lines if asked.

    ``snapshot_out`` receives the checkpoint text, written outside the
    timed sections. ``keep_final_users`` exports the final user states.
    """
    service_ns = array("q")
    digest = hashlib.sha256()
    watched: dict[str, list[str]] = {u: [] for u in watch}

    def sink(alert) -> None:
        digest.update(stream.alert_to_json(alert).encode())
        digest.update(b"\n")
        ids = watched.get(alert.user_id)
        if ids is not None:
            ids.append(alert.event_id)

    clock = time.perf_counter_ns
    snapshot_bytes = snapshot_users = 0
    with open(path, "r", encoding="utf-8") as fh:
        if not checkpoint:
            start = clock()
            stats, engines = stream.run_monitor(
                Feeder(fh, service_ns, charge), config, sink, workers=1)
            ingest_ns, checkpoint_ns = clock() - start, 0
            runs = [stats]
        else:
            start = clock()
            first, engines = stream.run_monitor(
                Feeder(islice(fh, cut_line), service_ns, charge), config, sink,
                workers=1)
            cut = clock()
            text = encode_snapshot(stream.dump_state(engines))
            del engines
            restored = stream.restore_state(text)
            users = restored.export_users()
            restored_at = clock()
            snapshot_bytes, snapshot_users = len(text.encode("utf-8")), len(users)
            if snapshot_out is not None:
                snapshot_out.write_text(text, encoding="utf-8")
            del text
            feeder = Feeder(fh, service_ns, charge)
            resume = clock()
            second, engines = stream.run_monitor(
                feeder, restored.config, sink, initial_users=users, workers=1)
            end = clock()
            del users, restored
            # Re-adoption of the users happens inside run_monitor, before it
            # asks for its first line; it belongs to the checkpoint.
            ingest_ns = (cut - start) + (end - feeder.first_pull_ns)
            checkpoint_ns = (restored_at - cut) + (feeder.first_pull_ns - resume)
            runs = [first, second]
    return PassResult(
        lines=sum(s.events_read for s in runs),
        events=sum(s.events_processed for s in runs),
        malformed=sum(s.events_malformed for s in runs),
        ingest_s=ingest_ns / 1e9,
        checkpoint_s=checkpoint_ns / 1e9,
        service_ns=service_ns,
        digest=digest.hexdigest(),
        watched=watched,
        snapshot_bytes=snapshot_bytes,
        snapshot_users=snapshot_users,
        final_users=engines[0].export_users() if keep_final_users else {},
    )
