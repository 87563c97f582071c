"""One replay pass in a fresh interpreter, as one ``monitor run`` would be.

    python3 bench/worker.py --corpus FILE --cut-line N [--checkpoint 0|1]
        [--trace 0|1] [--snapshot-out FILE] [--watch USER,USER]

Prints one JSON object summarising the pass. ``run.py`` starts one worker
per pass, one after another, so every pass pays the same cold start that a
real run pays and reports the peak RSS of its own process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

import run


def summarize(result, tracer=None) -> dict:
    """JSON-ready summary of one ``replay.PassResult``; with the pass's
    ``tracer.Tracer``, also its per-layer metrics as ``{name: [value, unit]}``."""
    p50, samples = run.percentile(result.service_ns, 50)
    p99, _ = run.percentile(result.service_ns, 99)
    out = {
        "lines": result.lines,
        "events": result.events,
        "malformed": result.malformed,
        "ingest_s": result.ingest_s,
        "checkpoint_s": result.checkpoint_s,
        "p50_ns": p50,
        "p99_ns": p99,
        "samples": samples,
        "digest": result.digest,
        "watched": result.watched,
        "snapshot_bytes": result.snapshot_bytes,
        "snapshot_users": result.snapshot_users,
        "peak_rss_bytes": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024,
    }
    if tracer is not None:
        layers = tracer.metrics(result.events)
        states = result.final_users.values()
        layers["stream.snapshot_bytes"] = (result.snapshot_bytes, "B")
        layers["state.users"] = (len(result.final_users), "count")
        layers["state.profiled_users"] = (sum(s.profile is not None for s in states),
                                          "count")
        layers["state.retained_weeks_max"] = (max(len(s.events_by_week) for s in states),
                                              "count")
        layers["state.alert_history"] = (sum(len(s.alerts) for s in states), "count")
        out["layers"] = layers
        out["malformed_by_reason"] = dict(tracer.malformed)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--cut-line", type=int, required=True)
    parser.add_argument("--checkpoint", type=int, choices=(0, 1), default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--snapshot-out", type=Path, default=None)
    parser.add_argument("--watch", default="")
    args = parser.parse_args(argv)

    run.load_program()
    from astd_monitor.detector import DetectorConfig
    from replay import replay_pass
    from tracer import Tracer

    options = dict(checkpoint=bool(args.checkpoint),
                   watch=[u for u in args.watch.split(",") if u],
                   snapshot_out=args.snapshot_out)
    config = DetectorConfig()
    if args.trace:
        with Tracer() as tracer:
            result = replay_pass(args.corpus, args.cut_line, config,
                                 charge=tracer.charge, keep_final_users=True, **options)
        summary = summarize(result, tracer)
    else:
        summary = summarize(replay_pass(args.corpus, args.cut_line, config, **options))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
