"""Replay benchmark of astd-monitor: one command, end-to-end or traced.

    python3 bench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Generates the workload's corpus from the seed, replays it through the
public ``run_monitor`` API in closed loop, one pass after another until
``--seconds`` have gone by, and checks the outputs. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (medians over the passes); with ``--trace 1`` they are the
per-layer ones, from passes run under ``tracer.Tracer``. Lines above it
describe the machine and print every metric with its unit and sample count.

Each pass runs in its own ``worker.py`` process, one after another, so
that every pass starts cold as a real ``monitor run`` does and per-process
effects (hash seed, memory layout) are spread over the passes.

Exit codes: 0 when every correctness check passed, 1 when one failed or
the run raised, 2 when the program under test cannot be imported from
this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = ROOT / ".bench_work"

# Users whose alerts are replayed through the independent oracles.
ORACLE_USERS = 6

SETUP_REPEATS = 7
SETUP_SNIPPET = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import astd_monitor
astd_monitor.MonitorEngine()
elapsed = time.perf_counter() - start
print(elapsed, astd_monitor.__file__)
"""


def load_program() -> None:
    """Put this checkout's ``src`` and ``tests`` first on the path and make
    sure the program and the oracles come from there."""
    sys.path[1:1] = [str(SRC), str(TESTS)]
    import astd_monitor
    import oracles

    for module, home in ((astd_monitor, SRC), (oracles, TESTS)):
        if not Path(module.__file__).resolve().is_relative_to(home):
            raise ImportError(f"{module.__name__} imported from {module.__file__}, "
                              f"not from {home}")


def percentile(values, q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-th percentile of ``values`` and the sample count."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1], len(ordered)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def measure_setup() -> list[float]:
    """Seconds to import astd_monitor and build an engine in fresh
    interpreters; one untimed warm-up first, which also compiles bytecode."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                              capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        elapsed, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported astd_monitor from {where}")
        if i:
            times.append(float(elapsed))
    return times


def oracle_alerts(path: Path, users, config) -> dict[str, list[str]]:
    """Alert ids of ``users`` from a straight-line replay through the
    oracles in ``tests/oracles.py``; never touches the package."""
    from oracles import WindowOracle, minute_of, naive_kde, silverman_reference

    replayers = {u: WindowOracle(config.n, config.k, config.max_gap_weeks) for u in users}
    densities: dict[str, object] = {}
    alerts: dict[str, list[str]] = {u: [] for u in users}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if not isinstance(obj, dict):
                continue
            user, event_id, ts = obj.get("UserId"), obj.get("Id"), obj.get("CreationTime")
            if not (isinstance(user, str) and user in replayers
                    and isinstance(event_id, str) and event_id and isinstance(ts, str)):
                continue
            try:
                minute = minute_of(ts)
            except ValueError:
                continue
            replayer = replayers[user]
            refits = len(replayer.profile_samples)
            replayer.feed(ts)
            if len(replayer.profile_samples) > refits:
                sample = replayer.profile_samples[-1]
                densities[user] = naive_kde(sample, silverman_reference(sample))
            grid = densities.get(user)
            if grid is not None and grid[minute] <= config.threshold:
                alerts[user].append(event_id)
    return alerts


def gate(manifest, passes, reference, expected_digest, snapshot_path, watch, config,
         malformed_by_reason=None) -> list[str]:
    """Every correctness check; returns the failures."""
    from astd_monitor import stream
    from astd_monitor.trace import run_trace

    failures = []
    if not run_trace().passed:
        failures.append("golden trace: a checkpoint failed")
    for i, p in enumerate(passes):
        if p["digest"] != reference["digest"]:
            failures.append(f"pass {i}: checkpointed alert digest {p['digest']} != "
                            f"uninterrupted {reference['digest']}")
        if p["lines"] != manifest.lines:
            failures.append(f"pass {i}: read {p['lines']} lines, corpus has "
                            f"{manifest.lines}")
        if p["malformed"] != manifest.malformed_total:
            failures.append(f"pass {i}: {p['malformed']} malformed, planted "
                            f"{manifest.malformed_total}")
    if expected_digest and reference["digest"] != expected_digest:
        failures.append(f"alert digest {reference['digest']} != pinned {expected_digest}")
    if malformed_by_reason is not None and malformed_by_reason != manifest.malformed:
        failures.append(f"malformed by reason {malformed_by_reason} != planted "
                        f"{manifest.malformed}")
    text = snapshot_path.read_text(encoding="utf-8")
    if json.dumps(stream.dump_state(stream.restore_state(text))) != text:
        failures.append("restored snapshot does not re-dump to identical text")
    expected = oracle_alerts(manifest.path, watch, config)
    for user in watch:
        if reference["watched"][user] != expected[user]:
            failures.append(f"oracle: alerts of {user} {reference['watched'][user]} != "
                            f"{expected[user]}")
    return failures


def replay_in_worker(manifest, *, checkpoint=True, trace=False, snapshot_path=None,
                     watch=()) -> dict:
    """One pass in a fresh ``worker.py`` process; returns its summary."""
    command = [sys.executable, str(BENCH / "worker.py"),
               "--corpus", str(manifest.path), "--cut-line", str(manifest.cut_line),
               "--checkpoint", str(int(checkpoint)), "--trace", str(int(trace)),
               "--watch", ",".join(watch)]
    if snapshot_path is not None:
        command += ["--snapshot-out", str(snapshot_path)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"replay worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(manifest, seconds, snapshot_path, trace=False) -> list[dict]:
    """Checkpointed passes, one worker each, until ``seconds`` have gone by
    (at least one)."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(replay_in_worker(manifest, trace=trace, snapshot_path=snapshot_path))
    return passes


def rate(p: dict) -> float:
    return p["events"] / p["ingest_s"]


def end_to_end(passes, setup_times) -> dict[str, tuple[float, str, int]]:
    n = len(passes)
    samples = sum(p["samples"] for p in passes)
    first = passes[0]
    return {
        "events_per_s": (median(map(rate, passes)), "1/s", n),
        "event_p50_us": (median(p["p50_ns"] for p in passes) / 1e3, "us", samples),
        "event_p99_us": (median(p["p99_ns"] for p in passes) / 1e3, "us", samples),
        "peak_rss_mb": (median(p["peak_rss_bytes"] for p in passes) / 1e6, "MB", n),
        "state_bytes_per_user": (first["snapshot_bytes"] / first["snapshot_users"], "B",
                                 first["snapshot_users"]),
        "checkpoint_s": (median(p["checkpoint_s"] for p in passes), "s", n),
        "setup_s": (median(setup_times), "s", len(setup_times)),
    }


def per_layer(traced, untraced) -> dict[str, tuple[float, str, int]]:
    n = len(traced)
    out = {name: (median(p["layers"][name][0] for p in traced), unit, n)
           for name, (_, unit) in traced[0]["layers"].items()}
    out["bench.trace_overhead_ratio"] = (
        median(map(rate, untraced)) / median(map(rate, traced)), "ratio", n)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default=None,
                        help="alert-stream digest the run must reproduce "
                             "(default: the pinned one at the default seed)")
    args = parser.parse_args(argv)

    try:
        load_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT}: {exc}", file=sys.stderr)
        return 2

    import corpus
    from astd_monitor.detector import DetectorConfig

    if args.workload not in corpus.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(corpus.WORKLOADS)}")
    workload = corpus.WORKLOADS[args.workload]
    expected = args.expect_digest
    if expected is None and args.seed == corpus.DEFAULT_SEED:
        expected = workload.pinned_digest

    # A terminated run still removes its corpus and snapshot files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    print(json.dumps({"env": environment()}), flush=True)
    WORK.mkdir(exist_ok=True)
    tag = f"{workload.name}-{args.seed}-{os.getpid()}"
    corpus_path = WORK / f"{tag}.ldjson"
    snapshot_path = WORK / f"{tag}.snapshot.json"
    attempted = 0
    passes = []
    try:
        manifest = corpus.generate(workload, args.seed, corpus_path)
        watch = random.Random(args.seed).sample(manifest.users, ORACLE_USERS)
        # The untimed reference pass goes first so that the timed passes and
        # the set-up timing run on a machine that is already busy: a vCPU
        # that was idle runs the first seconds of work measurably slower.
        reference = replay_in_worker(manifest, checkpoint=False, watch=watch)
        malformed_by_reason = None
        if args.trace:
            untraced = run_passes(manifest, args.seconds / 2, snapshot_path)
            traced = run_passes(manifest, args.seconds / 2, snapshot_path, trace=True)
            metrics = per_layer(traced, untraced)
            passes = untraced + traced
            malformed_by_reason = {r: traced[0]["malformed_by_reason"].get(r, 0)
                                   for r in corpus.MALFORMED_REASONS}
        else:
            passes = run_passes(manifest, args.seconds, snapshot_path)
            metrics = end_to_end(passes, measure_setup())
        attempted = sum(p["lines"] for p in passes)
        failures = gate(manifest, passes, reference, expected, snapshot_path, watch,
                        DetectorConfig(), malformed_by_reason)
    except Exception:
        traceback.print_exc()
        failures = ["the run raised"]
        metrics = {}
    finally:
        corpus_path.unlink(missing_ok=True)
        snapshot_path.unlink(missing_ok=True)

    attempted = max(attempted, 1)
    failed = attempted if failures else 0
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  failed_share {failed / attempted:.6f} "
          f"({failed}/{attempted})")
    print("  per pass: events_per_s " + " ".join(f"{rate(p):.0f}" for p in passes)
          + "  checkpoint_s " + " ".join(f"{p['checkpoint_s']:.3f}" for p in passes))
    for name, (value, unit, count) in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {unit:<6} n={count}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
