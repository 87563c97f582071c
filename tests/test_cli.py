"""CLI behavior: config files, flag overrides, exit codes, output streams."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import astd_monitor
from astd_monitor import cli, detector
from astd_monitor.cli import load_config, main, parse_config_text
from astd_monitor.detector import ConfigError, DetectorConfig
from astd_monitor.stream import dump_state, run_monitor
from astd_monitor.trace import TRACE_EVENTS, TRACE_USER, run_trace

CONFIG_TEXT = """\
# window management
n = 3
k = 10
threshold = 0.001
max_gap_weeks = 3

# density model
bandwidth.method = silverman
circular = false
"""


@pytest.fixture
def trace_input(tmp_path):
    path = tmp_path / "events.ldjson"
    path.write_text("".join(
        json.dumps({"Id": e, "CreationTime": t, "UserId": TRACE_USER}) + "\n"
        for e, t in TRACE_EVENTS))
    return path


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "monitor.conf"
    path.write_text(CONFIG_TEXT)
    return path


# --------------------------------------------------------------------------
# Config parsing
# --------------------------------------------------------------------------

def test_parse_config_text_full_file():
    values = parse_config_text(CONFIG_TEXT)
    assert values == {"n": 3, "k": 10, "threshold": 0.001, "max_gap_weeks": 3,
                      "bandwidth_method": "silverman", "circular": False}


def test_parse_config_reports_unknown_key_with_line_number():
    with pytest.raises(ConfigError, match="line 2.*mystery"):
        parse_config_text("n = 3\nmystery = 1\n")


def test_parse_config_reports_bad_value():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("n = many\n")
    with pytest.raises(ConfigError, match="true or false"):
        parse_config_text("circular = maybe\n")


def test_parse_config_requires_key_value_shape():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")


def test_the_readme_config_file_parses_to_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    assert block.startswith("# monitor.conf\n")
    assert DetectorConfig.from_dict(parse_config_text(block)) == DetectorConfig()


def test_the_readme_alert_line_is_what_run_writes(tmp_path, trace_input):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("Alerts: ", 1)[1].split("```text\n", 1)[1].split("```", 1)[0]
    assert run_cli(["run", "--input", str(trace_input),
                    "--alerts", str(tmp_path / "a.ldjson")]) == 0
    assert (tmp_path / "a.ldjson").read_bytes() == block.encode()


def test_circular_flag_takes_true_or_false_in_any_case():
    for word, value in (("TRUE", True), ("False", False), ("true", True)):
        args = cli._build_parser().parse_args(
            ["run", "--input", "-", "--alerts", "-", "--circular", word])
        assert args.circular is value


def test_load_config_applies_flag_overrides(config_file):
    config = load_config(str(config_file), {"k": 25, "circular": True})
    assert config.k == 25
    assert config.circular is True
    assert config.n == 3  # untouched file value survives


def test_load_config_without_file_uses_defaults():
    config = load_config(None, {})
    assert (config.n, config.k, config.threshold) == (3, 10, 0.001)


# --------------------------------------------------------------------------
# monitor run
# --------------------------------------------------------------------------

def run_cli(args):
    return main(args)


def test_run_end_to_end(tmp_path, trace_input, config_file, capsys):
    alerts_path = tmp_path / "alerts.ldjson"
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(alerts_path), "--stats"])
    assert code == 0
    err = capsys.readouterr().err
    stats = json.loads(err.strip().splitlines()[-1])
    assert stats["events_read"] == 14
    assert stats["alerts_emitted"] == 1
    alerts = [json.loads(line) for line in alerts_path.read_text().splitlines()]
    assert [a["event_id"] for a in alerts] == ["e13"]


def test_run_warns_when_threshold_tops_uniform_density(tmp_path, trace_input,
                                                       config_file, capsys):
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson")])
    assert code == 0
    assert "uniform density" in capsys.readouterr().err


def test_run_quiet_when_threshold_is_below_uniform(tmp_path, trace_input,
                                                   config_file, capsys):
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--threshold", "0.0001"])
    assert code == 0
    assert "uniform density" not in capsys.readouterr().err


def test_run_missing_input_exits_1(tmp_path, config_file, capsys):
    code = run_cli(["run", "--input", str(tmp_path / "absent.ldjson"),
                    "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson")])
    assert code == 1
    assert "cannot read input" in capsys.readouterr().err


def test_run_invalid_config_exits_2(tmp_path, trace_input, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("n = 0\n")
    code = run_cli(["run", "--input", str(trace_input), "--config", str(bad),
                    "--alerts", str(tmp_path / "a.ldjson")])
    assert code == 2


def test_run_config_setting_kernel_exits_2(tmp_path, trace_input, capsys):
    # Only the Gaussian kernel exists, so the key is gone.
    conf = tmp_path / "kernel.conf"
    conf.write_text("n = 3\nkernel = gaussian\n")
    code = run_cli(["run", "--input", str(trace_input), "--config", str(conf),
                    "--alerts", str(tmp_path / "a.ldjson")])
    assert code == 2
    assert "config line 2: unknown key 'kernel'" in capsys.readouterr().err


def test_run_invalid_flag_override_exits_2(tmp_path, trace_input, config_file):
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--k", "0"])
    assert code == 2


def test_run_threshold_beyond_a_float_exits_2(tmp_path, trace_input, config_file, capsys):
    # float("1e400") is inf, which would reach every alert line as Infinity.
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--threshold", "1e400"])
    assert code == 2
    assert "threshold must be finite and > 0, got inf" in capsys.readouterr().err
    assert not (tmp_path / "a.ldjson").exists()


def test_run_passes_every_override_flag_into_the_config(tmp_path, trace_input,
                                                       config_file):
    state = tmp_path / "state.json"
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--state-out", str(state),
                    "--n", "4", "--k", "7", "--threshold", "0.0002",
                    "--max-gap-weeks", "5", "--bandwidth-method", "fixed",
                    "--bandwidth-value", "12.5", "--circular", "true"])
    assert code == 0
    assert json.loads(state.read_text())["config"] == {
        "n": 4, "k": 7, "threshold": 0.0002, "max_gap_weeks": 5,
        "bandwidth_method": "fixed", "bandwidth_value": 12.5, "circular": True}


def test_run_bad_circular_flag_exits_2_naming_it(tmp_path, trace_input, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["run", "--input", str(trace_input),
                 "--alerts", str(tmp_path / "a.ldjson"), "--circular", "maybe"])
    assert exit_info.value.code == 2
    assert "argument --circular: invalid boolean value: 'maybe'" in capsys.readouterr().err
    assert not (tmp_path / "a.ldjson").exists()


def test_run_bad_bandwidth_method_flag_exits_2(tmp_path, trace_input):
    alerts = tmp_path / "a.ldjson"
    try:
        code = run_cli(["run", "--input", str(trace_input), "--alerts", str(alerts),
                        "--bandwidth-method", "foo"])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert not alerts.exists()


def test_run_state_in_runs_under_the_snapshot_config_and_warns(tmp_path, config_file,
                                                               capsys):
    lines = [json.dumps({"Id": e, "CreationTime": t, "UserId": TRACE_USER}) + "\n"
             for e, t in TRACE_EVENTS]
    first = tmp_path / "first.ldjson"
    first.write_text("".join(lines[:8]))
    rest = tmp_path / "rest.ldjson"
    rest.write_text("".join(lines[8:]))
    state = tmp_path / "state.json"
    assert run_cli(["run", "--input", str(first), "--config", str(config_file),
                    "--alerts", str(tmp_path / "first-alerts.ldjson"),
                    "--state-out", str(state)]) == 0
    capsys.readouterr()
    resumed = tmp_path / "resumed.json"
    assert run_cli(["run", "--input", str(rest), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--state-in", str(state),
                    "--state-out", str(resumed), "--k", "25"]) == 0
    assert "requested configuration differs from the snapshot's" in capsys.readouterr().err
    assert json.loads(resumed.read_text())["config"]["k"] == 10
    assert [json.loads(line)["event_id"]
            for line in (tmp_path / "a.ldjson").read_text().splitlines()] == ["e13"]


def test_run_state_in_without_config_flags_does_not_warn(tmp_path, trace_input, capsys):
    # A snapshot under a config that is not the default: a resume that asks for
    # no config runs under it and has nothing to warn about.
    state = tmp_path / "state.json"
    assert run_cli(["run", "--input", str(trace_input), "--alerts", str(tmp_path / "a.ldjson"),
                    "--state-out", str(state), "--k", "5"]) == 0
    capsys.readouterr()
    assert run_cli(["run", "--input", str(trace_input), "--alerts", str(tmp_path / "b.ldjson"),
                    "--state-in", str(state), "--state-out", str(state)]) == 0
    assert "requested configuration differs" not in capsys.readouterr().err
    assert json.loads(state.read_text())["config"]["k"] == 5


@pytest.mark.parametrize("output, victim", [
    ("--alerts", "--input"), ("--alerts", "--config"), ("--alerts", "--state-in"),
    ("--state-out", "--input"), ("--state-out", "--config"),
])
def test_run_output_naming_an_input_exits_2_and_keeps_it(tmp_path, trace_input, config_file,
                                                         capsys, output, victim):
    state = tmp_path / "state.json"
    assert run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--state-out", str(state)]) == 0
    capsys.readouterr()
    paths = {"--input": trace_input, "--config": config_file, "--state-in": state,
             "--alerts": tmp_path / "b.ldjson"}
    before = {path: path.read_bytes() for path in paths.values() if path.exists()}
    # The same file under another name, through a subdirectory and back.
    (tmp_path / "sub").mkdir()
    paths[output] = f"{tmp_path}/sub/../{paths[victim].name}"
    args = ["run"]
    for flag, path in paths.items():
        args += [flag, str(path)]
    assert run_cli(args) == 2
    assert f"error: output {paths[output]} is also an input file" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in before} == before


@pytest.mark.parametrize("exists", [True, False])
def test_run_alerts_and_state_out_naming_one_file_exits_2_and_keeps_it(
        tmp_path, trace_input, config_file, capsys, exists):
    # The snapshot, written last, would replace every alert line.
    target = tmp_path / "x"
    if exists:
        target.write_bytes(b"kept\n")
    (tmp_path / "sub").mkdir()
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(target), "--state-out", f"{tmp_path}/sub/../x"])
    assert code == 2
    assert f"error: --alerts and --state-out name the same file {target}" in capsys.readouterr().err
    assert (target.read_bytes() == b"kept\n") if exists else not target.exists()


@pytest.mark.parametrize("output", ["--alerts", "--state-out"])
def test_run_stdin_input_naming_an_output_exits_2_and_keeps_it(tmp_path, trace_input,
                                                              config_file, output):
    src = Path(astd_monitor.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    paths = {"--alerts": tmp_path / "a.ldjson", "--state-out": tmp_path / "state.json"}
    paths[output] = trace_input
    before = trace_input.read_bytes()
    args = [sys.executable, "-m", "astd_monitor.cli", "run", "--input", "-",
            "--config", str(config_file)]
    for flag, path in paths.items():
        args += [flag, str(path)]
    with open(trace_input, "rb") as stdin:
        proc = subprocess.run(args, stdin=stdin, capture_output=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert f"error: output {trace_input} is also an input file" in proc.stderr.decode()
    assert trace_input.read_bytes() == before
    assert not any(path.exists() for path in paths.values() if path != trace_input)


def test_run_bad_workers_exits_2(tmp_path, trace_input, config_file, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                 "--alerts", str(tmp_path / "a.ldjson"), "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err
    assert not (tmp_path / "a.ldjson").exists()


def test_run_non_utf8_input_exits_1_without_traceback(tmp_path, config_file, capsys):
    path = tmp_path / "events.ldjson"
    path.write_bytes(b'{"Id":"e1","CreationTime":"2022-06-22T10:15:00Z","UserId":"u1"}\n'
                     b"\xff\xfe bad\n")
    state = tmp_path / "state.json"
    # main returns instead of raising UnicodeDecodeError: no traceback
    code = run_cli(["run", "--input", str(path), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--state-out", str(state)])
    assert code == 1
    assert f"error: cannot read input {path}: " in capsys.readouterr().err
    assert not state.exists()


def test_run_non_utf8_stdin_exits_1_under_the_c_locale(tmp_path, config_file):
    # Under the C locale Python reads sys.stdin with surrogateescape; the
    # run must still decode stdin as strict UTF-8, as it decodes a file.
    src = Path(astd_monitor.__file__).resolve().parents[1]
    env = {**os.environ, "LC_ALL": "C",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    state = tmp_path / "state.json"
    proc = subprocess.run(
        [sys.executable, "-m", "astd_monitor.cli", "run", "--input", "-",
         "--config", str(config_file), "--alerts", str(tmp_path / "a.ldjson"),
         "--state-out", str(state)],
        input=b'{"Id":"e1","CreationTime":"2022-06-22T10:15:00Z","UserId":"u1"}\n'
              b"\xff\xfe bad\n",
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    err = proc.stderr.decode("utf-8", "replace")
    assert "error: cannot read input -: " in err
    assert "Traceback" not in err
    assert not state.exists()


def test_run_with_stdin_closed_exits_1_without_traceback(tmp_path):
    # Python sets sys.stdin to None when fd 0 is closed.
    src = Path(astd_monitor.__file__).resolve().parents[1]
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    alerts = tmp_path / "a.ldjson"
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m astd_monitor.cli run --input - --alerts "$1" <&-',
         sys.executable, str(alerts)],
        capture_output=True, env=env, timeout=60)
    assert proc.returncode == 1
    err = proc.stderr.decode("utf-8", "replace")
    assert "error: cannot read input -: " in err
    assert "Traceback" not in err
    assert not alerts.exists()


def test_state_out_writes_what_json_dumps_writes(tmp_path, trace_input, config_file):
    state = tmp_path / "state.json"
    assert run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--state-out", str(state)]) == 0
    with open(trace_input, encoding="utf-8") as lines:
        _, engines = run_monitor(lines, load_config(str(config_file), {}))
    assert state.read_text(encoding="utf-8") == json.dumps(dump_state(engines))


def test_run_failed_alert_write_exits_1_naming_the_alerts(tmp_path, trace_input,
                                                          config_file, monkeypatch,
                                                          capsys):
    def disk_full(alert):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "alert_to_json", disk_full)
    alerts = tmp_path / "a.ldjson"
    state = tmp_path / "state.json"
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(alerts), "--state-out", str(state)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: cannot write alerts to {alerts}: " in err
    assert "cannot read input" not in err
    assert not state.exists()


# Each file monitor run cannot open ends the run with its exit code and one
# error line naming the file, and writes no snapshot.
@pytest.mark.parametrize("flag,code,message", [
    ("--config", 2, "cannot read config file"),
    ("--state-in", 1, "cannot read state file"),
    ("--alerts", 1, "cannot write alerts to"),
])
def test_run_unopenable_file_exits_with_one_error_line(tmp_path, trace_input, capsys,
                                                       flag, code, message):
    missing = tmp_path / "no-such-dir" / "file"
    state = tmp_path / "state.json"
    args = {"--input": str(trace_input), "--alerts": str(tmp_path / "a.ldjson"),
            "--state-out": str(state), flag: str(missing)}
    assert run_cli(["run", *(part for pair in args.items() for part in pair)]) == code
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error: {message} {missing}: ")
    assert not state.exists()


def test_run_corrupt_state_in_exits_1(tmp_path, trace_input, config_file, capsys):
    snapshot = tmp_path / "state.json"
    snapshot.write_text('{"schema": "astd-monitor/state/2", "config"')
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"),
                    "--state-in", str(snapshot)])
    assert code == 1
    assert "bad state file" in capsys.readouterr().err


def test_run_state_in_with_an_invalid_week_exits_1(tmp_path, trace_input, config_file,
                                                  capsys):
    state_in = tmp_path / "state.json"
    assert run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"),
                    "--state-out", str(state_in)]) == 0
    doc = json.loads(state_in.read_text())
    doc["users"][TRACE_USER].update(weeks={"202299": [600]}, used=1, profile=None)
    state_in.write_text(json.dumps(doc))
    capsys.readouterr()
    state_out = tmp_path / "out.json"
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "b.ldjson"),
                    "--state-in", str(state_in), "--state-out", str(state_out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: bad state file {state_in}: " in err
    assert "Traceback" not in err
    assert not state_out.exists()


def test_run_state_round_trip_through_files(tmp_path, config_file, capsys):
    lines = [json.dumps({"Id": e, "CreationTime": t, "UserId": TRACE_USER}) + "\n"
             for e, t in TRACE_EVENTS]
    first = tmp_path / "first.ldjson"
    first.write_text("".join(lines[:8]))
    rest = tmp_path / "rest.ldjson"
    rest.write_text("".join(lines[8:]))
    state = tmp_path / "state.json"
    alerts = tmp_path / "alerts.ldjson"

    assert run_cli(["run", "--input", str(first), "--config", str(config_file),
                    "--alerts", str(tmp_path / "first-alerts.ldjson"),
                    "--state-out", str(state)]) == 0
    assert run_cli(["run", "--input", str(rest), "--config", str(config_file),
                    "--alerts", str(alerts), "--state-in", str(state)]) == 0
    emitted = [json.loads(line) for line in alerts.read_text().splitlines()]
    assert [a["event_id"] for a in emitted] == ["e13"]


def test_failed_state_out_keeps_the_previous_snapshot(tmp_path, trace_input,
                                                      config_file, monkeypatch, capsys):
    state = tmp_path / "state.json"
    assert run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"),
                    "--state-out", str(state)]) == 0
    before = state.read_bytes()
    files_before = sorted(tmp_path.iterdir())

    def disk_full(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", disk_full)  # the snapshot is written, not yet durable
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"),
                    "--state-in", str(state), "--state-out", str(state)])
    assert code == 1
    assert "cannot write state" in capsys.readouterr().err
    assert state.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == files_before  # no temporary file left


def test_run_stats_count_malformed_lines_by_reason(tmp_path, config_file, capsys):
    path = tmp_path / "events.ldjson"
    path.write_text('nonsense\n{"Id":"e1","CreationTime":"2022-06-22T10:15:00Z"}\n'
                    'garbage\n')
    code = run_cli(["run", "--input", str(path), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--stats"])
    assert code == 0
    stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert stats["malformed_by_reason"] == {"bad JSON": 2, "missing UserId": 1}


# One valid event, and lines the JSON decoder refuses with RecursionError
# (nested far beyond the recursion limit) and ValueError (an ignored field
# holding an integer of more than 4,300 digits).
GOOD_LINE = '{"Id":"e1","CreationTime":"2022-06-22T10:15:00Z","UserId":"u1"}'
HOSTILE_TEXTS = {"deep": "[" * 100_000 + "]" * 100_000,
                 "big-int": GOOD_LINE[:-1] + ',"Size":' + "9" * 5000 + "}"}


def test_run_counts_lines_the_decoder_refuses_and_writes_the_state(tmp_path, config_file,
                                                                   capsys):
    path = tmp_path / "events.ldjson"
    path.write_text(f"{HOSTILE_TEXTS['deep']}\n{GOOD_LINE}\n{HOSTILE_TEXTS['big-int']}\n"
                    f"{GOOD_LINE.replace('e1', 'e2')}\n")
    state = tmp_path / "state.json"
    code = run_cli(["run", "--input", str(path), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"), "--stats",
                    "--state-out", str(state)])
    assert code == 0
    stats = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert stats["malformed_by_reason"] == {"bad JSON": 2}
    assert stats["events_processed"] == 2
    assert json.loads(state.read_text())["users"]["u1"]["weeks"] == {"202225": [615, 615]}


@pytest.mark.parametrize("name", sorted(HOSTILE_TEXTS))
def test_run_state_in_the_decoder_refuses_exits_1(tmp_path, trace_input, config_file,
                                                   capsys, name):
    snapshot = tmp_path / "state.json"
    snapshot.write_text(HOSTILE_TEXTS[name])
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", str(tmp_path / "a.ldjson"),
                    "--state-in", str(snapshot)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: bad state file {snapshot}: invalid JSON: " in err
    assert "Traceback" not in err


def test_run_alerts_to_stdout(trace_input, config_file, capsys):
    code = run_cli(["run", "--input", str(trace_input), "--config", str(config_file),
                    "--alerts", "-"])
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1])["event_id"] == "e13"


# --------------------------------------------------------------------------
# monitor replay-trace
# --------------------------------------------------------------------------

def test_replay_trace_passes_and_reports(capsys):
    code = run_cli(["replay-trace"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 5
    assert "one short of k=10" in out        # the window-advance deferral note
    assert "alerts: ['e13']" in out


def test_replay_trace_reports_a_refit_that_never_runs_as_a_fail(monkeypatch, capsys):
    # The refresh flag then stays set, and no state can be captured.
    monkeypatch.setattr(detector, "refresh_profile", lambda attrs, config: False)
    assert run_trace().passed is False
    assert run_cli(["replay-trace"]) == 1
    out = capsys.readouterr().out
    assert "FAIL  refresh flag consumed after e12" in out
    assert "CHECKPOINT MISMATCH" in out
