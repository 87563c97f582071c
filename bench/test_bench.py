"""Tests of the benchmark itself. Run from the repository root with

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import run

run.load_program()

import corpus  # noqa: E402
import replay  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from astd_monitor.detector import DetectorConfig  # noqa: E402
from astd_monitor.stream import MalformedRecord, parse_record  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = dataclasses.replace(corpus.WORKLOADS["disorder"], users=10, weeks=8,
                           events_per_user_week=15.0, checkpoint_week=5)


def test_generator_is_deterministic(tmp_path):
    a = corpus.generate(TINY, 7, tmp_path / "a.ldjson")
    b = corpus.generate(TINY, 7, tmp_path / "b.ldjson")
    c = corpus.generate(TINY, 8, tmp_path / "c.ldjson")
    assert a.path.read_bytes() == b.path.read_bytes()
    assert a.path.read_bytes() != c.path.read_bytes()
    assert (a.lines, a.cut_line, a.malformed) == (b.lines, b.cut_line, b.malformed)
    assert 0 < a.cut_line < a.lines


def test_planted_lines_are_rejected_for_their_reason(tmp_path):
    manifest = corpus.generate(TINY, 3, tmp_path / "c.ldjson")
    records = map(parse_record, manifest.path.read_text().splitlines())
    seen = Counter(r.reason for r in records if isinstance(r, MalformedRecord))
    assert dict(seen) == manifest.malformed
    assert all(manifest.malformed[r] > 0 for r in corpus.MALFORMED_REASONS)


def test_percentile_reports_the_sample_count():
    assert run.percentile([5, 1, 4, 2, 3], 50) == (3, 5)
    assert run.percentile(range(1, 101), 99) == (99, 100)
    assert run.percentile([7], 99) == (7, 1)
    with pytest.raises(ValueError):
        run.percentile([], 50)


def _hooked():
    return [(owner, attr, vars(owner)[attr]) for owner, attr, _ in tracer.HOOKS]


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _hooked()
    manifest = corpus.generate(TINY, 5, tmp_path / "c.ldjson")
    config = DetectorConfig()
    plain = replay.replay_pass(manifest.path, manifest.cut_line, config)
    with tracer.Tracer() as t:
        assert all(vars(owner)[attr] is not original for owner, attr, original in before)
        traced = replay.replay_pass(manifest.path, manifest.cut_line, config,
                                    charge=t.charge, keep_final_users=True)
    assert all(vars(owner)[attr] is original for owner, attr, original in before)
    assert traced.digest == plain.digest
    assert dict(t.malformed) == manifest.malformed
    assert t.spans["stream.parse_record"].calls == manifest.lines

    emitted = set(run.per_layer([worker.summarize(traced, t)], [worker.summarize(plain)]))
    assert emitted == {m["name"] for m in SPEC["per_layer"]}

    with pytest.raises(RuntimeError):
        with tracer.Tracer():
            raise RuntimeError("boom")
    assert all(vars(owner)[attr] is original for owner, attr, original in before)


def _command(*args, cwd):
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_wrong_pinned_digest_fails_the_run():
    proc = _command("--workload", "dense", "--seed", "2", "--seconds", "0.1",
                    "--trace", "0", "--expect-digest", "0" * 64, cwd=ROOT)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert "pinned" in proc.stderr


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _command("--workload", "dense", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_lists_the_generated_workloads():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in corpus.WORKLOADS.values()]
