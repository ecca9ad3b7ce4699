"""CLI observability commands: ``repro alerts``, ``repro info``, ``--serve-metrics``."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.monitor.core import PROBE_EVENT
from repro.telemetry.export import active_exporter, reset_health, stop_exporter
from repro.telemetry.metrics import default_registry


@pytest.fixture(autouse=True)
def _clean_state():
    yield
    stop_exporter()
    reset_health()
    default_registry().clear()


def _write_timeseries(path, corr_values):
    with open(path, "w", encoding="utf-8") as handle:
        for epoch, corr in enumerate(corr_values):
            handle.write(json.dumps({
                "event": PROBE_EVENT, "probe": "correlation",
                "scope": "epoch", "epoch": epoch,
                "corr_abs_mean": corr,
            }) + "\n")


class TestParser:
    def test_alerts_defaults(self):
        args = build_parser().parse_args(["alerts", "run.jsonl"])
        assert args.command == "alerts"
        assert args.timeseries == "run.jsonl"
        assert args.corr_above == 0.25
        assert args.psnr_window == 3

    def test_alerts_overrides(self):
        args = build_parser().parse_args(
            ["alerts", "ts.jsonl", "--corr-above", "0.5", "--psnr-window", "5"])
        assert args.corr_above == 0.5
        assert args.psnr_window == 5

    def test_serve_metrics_global_flag(self):
        args = build_parser().parse_args(["--serve-metrics", "9109", "info"])
        assert args.serve_metrics == 9109
        assert build_parser().parse_args(["info"]).serve_metrics is None

    def test_monitor_alerts_flag(self):
        args = build_parser().parse_args(["monitor", "--alerts"])
        assert args.alerts is True


class TestAlertsReplay:
    def test_malicious_timeseries_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "malicious.jsonl"
        _write_timeseries(path, [0.1, 0.3, 0.5, 0.6])
        code = main(["alerts", str(path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "correlation_leak" in out
        assert "critical" in out

    def test_benign_timeseries_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "benign.jsonl"
        _write_timeseries(path, [0.05, 0.06, 0.05, 0.07])
        code = main(["alerts", str(path)])
        assert code == 0
        assert "no alerts" in capsys.readouterr().out

    def test_threshold_is_tunable(self, tmp_path):
        path = tmp_path / "ts.jsonl"
        _write_timeseries(path, [0.1, 0.3])
        assert main(["alerts", str(path), "--corr-above", "0.9"]) == 0

    def test_missing_file_errors_cleanly(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["alerts", str(tmp_path / "absent.jsonl")])
        assert "repro alerts" in str(excinfo.value)


class TestInfo:
    def test_consolidated_table(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro info" in out
        for key in ("backend", "dtype", "workers", "exporter", "metrics"):
            assert key in out
        assert "not running (--serve-metrics PORT)" in out


class TestServeMetrics:
    def test_serve_metrics_runs_and_stops_with_command(self, capsys):
        assert main(["--serve-metrics", "0", "info"]) == 0
        captured = capsys.readouterr()
        assert "metrics exporter serving" in captured.err
        assert "serving http://" in captured.out  # info table sees it live
        assert active_exporter() is None  # stopped on the way out
