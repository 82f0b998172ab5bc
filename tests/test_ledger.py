"""Run ledger and drift detection (:mod:`repro.obs.ledger` / ``.drift``).

Covers the record schema round-trip, the durability rules (best-effort
appends under the ``ledger.append:fail`` fault, corrupt lines skipped with
the ``ledger.corrupt`` counter), the drift thresholds in both directions,
and the ``repro runs`` CLI family driven in-process — including the
acceptance scenario: two clean tiny runs diff with zero fidelity drift,
and a fault-grammar-injected slow phase makes ``repro runs check`` exit
nonzero naming the offending phase.
"""

from __future__ import annotations

import json

import pytest

from repro import cli, faults, obs, parallel
from repro.obs import drift, ledger


@pytest.fixture(autouse=True)
def _clean_slate(tmp_path, monkeypatch):
    """Fresh ledger dir + clean fault/trace state around every test."""
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
    faults.configure(None)
    parallel.reset_warnings()
    yield
    faults.configure(None)
    parallel.reset_warnings()
    obs.finish()


def _traced_doc() -> dict:
    """A tiny real trace document: two phases plus a counter."""
    obs.enable(name="unit")
    with obs.span("release"):
        with obs.span("enrichment"):
            pass
    obs.counter("unit.events").inc(3)
    return obs.trace_to_dict(obs.finish())


def _record(
    run_id: str,
    *,
    kind: str = "study",
    command: str = "report",
    scale: str = "tiny",
    seed: int = 7,
    workers: str | None = None,
    faults_spec: str | None = None,
    phases: dict[str, float] | None = None,
    fidelity: dict[str, float] | None = None,
    peak_rss_mb: float | None = None,
    utilization: dict | None = None,
    timeline: dict | None = None,
) -> dict:
    """Synthetic schema-v1 record with the given phase walls / probe devs."""
    extras = {
        key: value
        for key, value in (
            ("peak_rss_mb", peak_rss_mb),
            ("utilization", utilization),
            ("timeline", timeline),
        )
        if value is not None
    }
    return extras | {
        "schema": ledger.LEDGER_SCHEMA_VERSION,
        "run_id": run_id,
        "created_unix": 0.0,
        "kind": kind,
        "command": command,
        "config": {
            "scale": scale, "seed": seed,
            "workers": workers, "faults": faults_spec, "cache": False,
        },
        "total_wall_s": sum((phases or {}).values()),
        "phases": {
            name: {"count": 1, "wall_s": wall, "cpu_s": wall}
            for name, wall in (phases or {}).items()
        },
        "fidelity": {
            probe: {"paper": 1.0, "measured": 1.0 + dev, "deviation": dev}
            for probe, dev in (fidelity or {}).items()
        },
    }


class TestLedgerRoundTrip:
    def test_build_append_read_round_trip(self):
        doc = _traced_doc()
        record = ledger.build_record(
            kind="study", command="report",
            config={"scale": "tiny", "seed": 7},
            trace_doc=doc,
            fidelity={"probe": {"paper": 2.0, "measured": 2.1, "deviation": 0.05}},
            extra={"rc": 0},
        )
        path = ledger.append_record(record)
        assert path == ledger.ledger_path() and path.is_file()

        loaded = ledger.read_records()
        assert len(loaded) == 1
        (back,) = loaded
        assert back["schema"] == ledger.LEDGER_SCHEMA_VERSION
        assert back["run_id"] == record["run_id"]
        assert back["kind"] == "study" and back["command"] == "report"
        assert back["config"]["scale"] == "tiny" and back["rc"] == 0
        assert set(back["phases"]) == {"release", "enrichment"}
        assert back["phases"]["release"]["count"] == 1
        assert back["counters"].get("unit.events") == 3
        assert back["fidelity"]["probe"]["deviation"] == pytest.approx(0.05)
        assert "entries" in back["cache"]

    def test_append_failure_is_best_effort(self):
        """An injected append failure warns, counts, and loses only the
        record — never the run."""
        faults.configure("ledger.append:fail@1")
        failed_before = ledger._APPEND_FAILED.value
        with pytest.warns(RuntimeWarning, match="failed to append"):
            result = ledger.append_record(_record("r1"))
        assert result is None
        assert ledger._APPEND_FAILED.value == failed_before + 1
        assert ledger.read_records() == []

        # The fault fired once; the very next append succeeds.
        assert ledger.append_record(_record("r2")) is not None
        assert [r["run_id"] for r in ledger.read_records()] == ["r2"]

    def test_corrupt_lines_skipped_and_counted(self):
        ledger.append_record(_record("good-1"))
        path = ledger.ledger_path()
        with path.open("a") as handle:
            handle.write("{not json at all\n")                    # corrupt
            truncated = json.dumps(_record("half-written"))
            handle.write(truncated[: len(truncated) // 2] + "\n")  # corrupt
            handle.write(json.dumps(["a", "list"]) + "\n")         # corrupt
            handle.write(json.dumps({"schema": 1}) + "\n")         # no run_id
            future = dict(_record("from-the-future"), schema=999)
            handle.write(json.dumps(future) + "\n")                # other era
        ledger.append_record(_record("good-2"))

        corrupt_before = ledger._CORRUPT.value
        records = ledger.read_records()
        assert [r["run_id"] for r in records] == ["good-1", "good-2"]
        # 4 damaged lines counted; the schema-999 record is skipped silently.
        assert ledger._CORRUPT.value == corrupt_before + 4

    def test_read_missing_file_is_empty(self, tmp_path):
        assert ledger.read_records(tmp_path / "nope.jsonl") == []

    def test_find_record_resolution(self):
        records = [_record("20260101T000000-aaa111"),
                   _record("20260101T000001-bbb222"),
                   _record("20260102T000000-bbb333")]
        assert ledger.find_record(records, "latest")["run_id"].endswith("bbb333")
        assert ledger.find_record(records, "-1") is records[-1]
        assert ledger.find_record(records, "20260101T000000-aaa111") is records[0]
        assert ledger.find_record(records, "20260101T000001") is records[1]
        assert ledger.find_record(records, "2026") is None      # ambiguous
        assert ledger.find_record(records, "zzz") is None       # no match
        assert ledger.find_record([], "latest") is None


class TestDriftThresholds:
    BASE = [_record(f"b{i}", phases={"release": 0.10, "figures": 0.50})
            for i in range(3)]

    def test_regression_is_flagged_with_phase_name(self):
        slow = _record("cand", phases={"release": 0.90, "figures": 0.50})
        findings = drift.check_drift(self.BASE + [slow])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.kind == "timing" and finding.subject == "release"
        assert finding.run_id == "cand"
        assert "release" in finding.render() and "cand" in finding.render()

    def test_within_tolerance_passes(self):
        ok = _record("cand", phases={"release": 0.12, "figures": 0.55})
        assert drift.check_drift(self.BASE + [ok]) == []

    def test_noise_floor_guards_millisecond_phases(self):
        """A 20x relative blowup on a 10 ms phase is jitter, not drift."""
        base = [_record(f"b{i}", phases={"blip": 0.010}) for i in range(3)]
        jitter = _record("cand", phases={"blip": 0.200})
        assert drift.check_drift(base + [jitter]) == []

    def test_relative_tolerance_guards_slow_phases(self):
        """+0.3 s on a 1 s phase clears the noise floor but not the 50%
        relative bar."""
        base = [_record(f"b{i}", phases={"big": 1.00}) for i in range(3)]
        slower = _record("cand", phases={"big": 1.30})
        assert drift.check_drift(base + [slower]) == []

    def test_median_baseline_resists_outliers(self):
        """One historically slow run cannot mask a real regression."""
        base = [_record("b0", phases={"release": 0.10}),
                _record("b1", phases={"release": 5.00}),
                _record("b2", phases={"release": 0.10})]
        slow = _record("cand", phases={"release": 0.90})
        findings = drift.check_drift(base + [slow])
        assert [f.subject for f in findings] == ["release"]
        assert findings[0].baseline == pytest.approx(0.10)

    def test_fidelity_drift_flagged_and_direction_matters(self):
        base = [_record(f"b{i}", fidelity={"probe": 0.01}) for i in range(3)]
        worse = _record("cand", fidelity={"probe": 0.10})
        findings = drift.check_drift(base + [worse])
        assert [f.kind for f in findings] == ["fidelity"]
        assert findings[0].subject == "probe"
        # Moving *toward* the paper value is never drift.
        better = _record("cand2", fidelity={"probe": 0.0})
        assert drift.check_drift(base + [better]) == []

    def test_groups_are_independent(self):
        """A slow seed-8 run is not judged against the seed-7 baseline."""
        other = _record("cand", seed=8, phases={"release": 9.0})
        assert drift.check_drift(self.BASE + [other]) == []

    def test_faults_excluded_from_group_key(self):
        """A faulted run faces the clean baseline — that is the point."""
        faulted = _record("cand", faults_spec="phase.release:sleep",
                          phases={"release": 0.90, "figures": 0.50})
        assert drift.group_key(faulted) == drift.group_key(self.BASE[0])
        findings = drift.check_drift(self.BASE + [faulted])
        assert [f.subject for f in findings] == ["release"]

    def test_single_run_and_empty_ledger_pass(self):
        assert drift.check_drift([]) == []
        assert drift.check_drift([self.BASE[0]]) == []

    def test_absent_phases_are_not_drift(self):
        """A cached run has no release phase; that is not a regression."""
        cached = _record("cand", phases={"figures": 0.50})
        assert drift.check_drift(self.BASE + [cached]) == []

    def test_render_diff_verdict_lines(self):
        a = _record("ra", phases={"release": 0.10},
                    fidelity={"probe": 0.01, "other": 0.02})
        b = _record("rb", phases={"release": 0.12, "extra": 0.30},
                    fidelity={"probe": 0.01, "other": 0.02})
        text = drift.render_diff(a, b)
        assert "runs ra -> rb" in text
        assert "release" in text and "only B" in text
        assert "fidelity drift: none (2 probes within tolerance" in text

        drifted = _record("rc", phases={"release": 0.10},
                          fidelity={"probe": 0.30, "other": 0.02})
        text = drift.render_diff(a, drifted)
        assert "<- drift" in text
        assert "fidelity drift: 1 probe(s) moved away from the paper" in text


class TestRssDrift:
    """Two-sided peak-RSS guard: relative blowup AND absolute growth."""

    BASE = [_record(f"b{i}", peak_rss_mb=100.0) for i in range(3)]

    def test_regression_is_flagged(self):
        fat = _record("cand", peak_rss_mb=300.0)
        findings = drift.check_drift(self.BASE + [fat])
        assert len(findings) == 1
        (finding,) = findings
        assert finding.kind == "rss" and finding.subject == "peak_rss_mb"
        assert finding.run_id == "cand"
        assert finding.baseline == pytest.approx(100.0)
        text = finding.render()
        assert "[RSS]" in text and "300MB" in text and "cand" in text

    def test_within_relative_tolerance_passes(self):
        """+40% on a 100 MB baseline clears the floor but not the 50% bar."""
        ok = _record("cand", peak_rss_mb=140.0)
        assert drift.check_drift(self.BASE + [ok]) == []

    def test_floor_guards_small_processes(self):
        """2.2x on a 40 MB baseline is interpreter noise, not drift."""
        base = [_record(f"b{i}", peak_rss_mb=40.0) for i in range(3)]
        small = _record("cand", peak_rss_mb=90.0)
        assert drift.check_drift(base + [small]) == []

    def test_median_baseline_resists_outliers(self):
        base = [_record("b0", peak_rss_mb=100.0),
                _record("b1", peak_rss_mb=900.0),
                _record("b2", peak_rss_mb=100.0)]
        fat = _record("cand", peak_rss_mb=400.0)
        findings = drift.check_drift(base + [fat])
        assert [f.kind for f in findings] == ["rss"]
        assert findings[0].baseline == pytest.approx(100.0)

    def test_records_without_peak_rss_do_not_participate(self):
        """Legacy records (no peak_rss_mb) neither alarm nor form a
        baseline; zero/garbage values are treated as absent."""
        legacy = _record("cand")
        assert drift.check_drift(self.BASE + [legacy]) == []

        base = [_record(f"b{i}") for i in range(3)]
        fat = _record("cand", peak_rss_mb=500.0)
        assert drift.check_drift(base + [fat]) == []

        zeros = [_record(f"b{i}", peak_rss_mb=0.0) for i in range(3)]
        assert drift.check_drift(zeros + [fat]) == []
        assert drift.check_drift(
            [dict(_record("b0"), peak_rss_mb="nan?")] * 3 + [fat]
        ) == []

    def test_check_drift_rss_tolerance_is_tunable(self):
        fat = _record("cand", peak_rss_mb=160.0)
        assert drift.check_drift(self.BASE + [fat]) == []
        findings = drift.check_drift(
            self.BASE + [fat], rss_tolerance=0.25, rss_floor_mb=10.0
        )
        assert [f.kind for f in findings] == ["rss"]


def _util_doc() -> dict:
    return {
        "value": 0.9, "busy_s": 3.6, "span_s": 2.0, "num_workers": 2,
        "workers": [
            {"pid": 11, "busy_s": 2.0, "intervals": [
                {"start_s": 0.0, "end_s": 2.0, "label": "shard 0"}]},
            {"pid": 12, "busy_s": 1.6, "intervals": [
                {"start_s": 0.2, "end_s": 1.8, "label": "shard 1"}]},
        ],
    }


def _timeline_doc() -> dict:
    return {
        "schema": 1, "interval_ms": 25.0, "num_samples": 3,
        "samples": [
            {"t_s": 0.0, "rss_mb": 50.0, "cpu_pct": 0.0,
             "open_fds": 8, "spill_mb": 0.0},
            {"t_s": 0.025, "rss_mb": 80.0, "cpu_pct": 90.0,
             "open_fds": 9, "spill_mb": 1.5},
            {"t_s": 0.05, "rss_mb": 70.0, "cpu_pct": 60.0,
             "open_fds": 8, "spill_mb": 1.5},
        ],
        "peak_rss_mb": 80.0, "mean_cpu_pct": 75.0,
        "max_open_fds": 9, "max_spill_mb": 1.5, "error": None,
    }


class TestRunsCli:
    def _seed_ledger(self, records):
        for record in records:
            assert ledger.append_record(record) is not None

    def test_runs_list_empty_and_populated(self, capsys):
        assert cli.main(["runs", "list"]) == 0
        assert "no runs recorded" in capsys.readouterr().out

        self._seed_ledger([_record("run-aa"), _record("run-bb")])
        assert cli.main(["runs", "list"]) == 0
        out = capsys.readouterr().out
        assert "run-aa" in out and "run-bb" in out

    def test_runs_show(self, capsys):
        self._seed_ledger([
            _record("run-aa", phases={"release": 0.2},
                    fidelity={"probe": 0.01}),
        ])
        assert cli.main(["runs", "show", "latest"]) == 0
        out = capsys.readouterr().out
        assert "run run-aa" in out and "release" in out and "probe" in out

        assert cli.main(["runs", "show", "missing"]) == 2
        assert "no unique run" in capsys.readouterr().err

    def test_runs_diff_and_bad_refs(self, capsys):
        self._seed_ledger([
            _record("run-aa", fidelity={"probe": 0.01}),
            _record("run-bb", fidelity={"probe": 0.01}),
        ])
        assert cli.main(["runs", "diff", "run-aa", "latest"]) == 0
        out = capsys.readouterr().out
        assert "runs run-aa -> run-bb" in out
        assert "fidelity drift: none" in out

        assert cli.main(["runs", "diff", "run-aa", "nope"]) == 2

    def test_runs_check_verdicts(self, capsys):
        assert cli.main(["runs", "check"]) == 0
        assert "nothing to compare" in capsys.readouterr().out

        self._seed_ledger([_record(f"b{i}", phases={"release": 0.1})
                           for i in range(3)])
        assert cli.main(["runs", "check"]) == 0
        assert "OK" in capsys.readouterr().out

        self._seed_ledger([_record("slow", phases={"release": 0.9})])
        assert cli.main(["runs", "check"]) == 1
        out = capsys.readouterr().out
        assert "[TIMING]" in out and "'release'" in out

    def test_runs_report_writes_dashboard(self, tmp_path, capsys):
        self._seed_ledger([_record(f"r{i}", phases={"release": 0.1})
                           for i in range(2)])
        out_path = tmp_path / "dash.html"
        assert cli.main(["runs", "report", "--out", str(out_path)]) == 0
        assert "wrote run dashboard (2 runs)" in capsys.readouterr().out
        html = out_path.read_text()
        assert "<svg" in html and "release" in html
        # No sampled run yet: the utilization section explains how to get one.
        assert "Utilization timeline" in html and "--sample" in html

    def test_trended_counters_are_registered(self):
        """Every counter the dashboard trends is one that ``repro``'s
        modules register on import: a counter deleted from the code must
        leave the trend list too.  A fresh interpreter keeps counters that
        other tests create out of the registry."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.obs import dashboard

        probe = (
            "import importlib, json, pkgutil, repro\n"
            "from repro import obs\n"
            "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
            "    if not m.name.endswith('__main__'):\n"
            "        importlib.import_module(m.name)\n"
            "print(json.dumps(sorted(obs.REGISTRY.counter_values())))\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, check=True,
            capture_output=True, text=True,
        ).stdout
        registered = json.loads(out.splitlines()[-1])
        unmatched = [
            prefix for prefix in dashboard._TREND_COUNTERS
            if not any(name.startswith(prefix) for name in registered)
        ]
        assert unmatched == []

    def test_runs_report_renders_utilization_gantt(self, tmp_path, capsys):
        self._seed_ledger([
            _record("plain", phases={"release": 0.1}),
            _record("sampled", phases={"release": 0.1}, peak_rss_mb=80.0,
                    utilization=_util_doc(), timeline=_timeline_doc()),
        ])
        out_path = tmp_path / "dash.html"
        assert cli.main(["runs", "report", "--out", str(out_path)]) == 0
        capsys.readouterr()
        html = out_path.read_text()
        assert "Utilization timeline" in html
        assert "sampled" in html and "80" in html      # run id + peak RSS note
        assert html.count('fill-opacity="0.8"') == 2   # one rect per interval
        assert "pid 11" in html and "pid 12" in html   # legend lanes
        assert "rss_mb" in html                        # resource chart series

    def test_explicit_ledger_flag(self, tmp_path, capsys):
        alt = tmp_path / "alt.jsonl"
        ledger.append_record(_record("elsewhere"), alt)
        assert cli.main(["runs", "list", "--ledger", str(alt)]) == 0
        assert "elsewhere" in capsys.readouterr().out

    def test_no_ledger_env_disables_recording(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NO_LEDGER", "1")
        assert cli.main(["report", "--scale", "tiny", "--seed", "7"]) == 0
        capsys.readouterr()
        assert ledger.read_records() == []


class TestLegacyRecordHardening:
    """Ledgers accumulate records from earlier writers: phases as bare
    numbers, missing ``run_id``/``peak_rss_mb``/``top_ops``-style phase
    aggregates, or garbage values.  The history/drift views must skip the
    unreadable parts with a note, never traceback."""

    def _bench_guard(self):
        import importlib.util
        from pathlib import Path

        path = (
            Path(__file__).resolve().parent.parent
            / "scripts" / "bench_guard.py"
        )
        spec = importlib.util.spec_from_file_location("bench_guard", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _legacy_bench_records(self):
        v = ledger.LEDGER_SCHEMA_VERSION
        return [
            # No run_id, phases as bare floats (earliest writer shape).
            {"schema": v, "kind": "bench",
             "phases": {"group_by_median": 0.012}},
            # Malformed: aggregates and speedups in unreadable shapes.
            {"schema": v, "kind": "bench", "run_id": "20260101-malformed",
             "phases": {"group_by_median": "fast",
                        "plan.op.group_by": 1.5},
             "speedups_vs_seed": "n/a"},
            # Current shape, with plan.op.* operator aggregates.
            {"schema": v, "kind": "bench", "run_id": "20260102-abcdef-good",
             "phases": {"group_by_median": {"count": 1, "wall_s": 0.011,
                                            "cpu_s": 0.0},
                        "plan.op.group_by": {"count": 3, "wall_s": 0.004,
                                             "cpu_s": 0.003}},
             "speedups_vs_seed": {"group_by_median": 4.7}},
        ]

    def test_bench_history_top_skips_legacy_records(self, capsys):
        for record in self._legacy_bench_records():
            assert ledger.append_record(record) is not None
        bench_guard = self._bench_guard()
        assert bench_guard.history(top=3) == 0
        out = capsys.readouterr().out
        assert "mean-time trajectory" in out
        assert "group_by_median" in out
        assert "legacy" in out  # the skip is noted, not silent
        # The hotspot listing found the one readable plan.op.* record.
        assert "top 1 plan operators" in out
        assert "20260102-abcdef-good" in out

    def test_bench_history_top_with_no_readable_hotspots(self, capsys):
        v = ledger.LEDGER_SCHEMA_VERSION
        assert ledger.append_record(
            {"schema": v, "kind": "bench", "run_id": "20260101-x",
             "phases": {"plan.op.join": 2.0}}  # legacy bare-float agg
        ) is not None
        bench_guard = self._bench_guard()
        assert bench_guard.history(top=2) == 0
        out = capsys.readouterr().out
        assert "no recorded run carries plan.op.*" in out
        assert "legacy record(s) skipped" in out

    def test_runs_check_tolerates_legacy_phase_and_rss_shapes(self, capsys):
        v = ledger.LEDGER_SCHEMA_VERSION
        base = {
            "schema": v, "kind": "study", "command": "report",
            "config": {"scale": "tiny", "seed": 7},
        }
        legacy = [
            # Bare-float phases, no peak_rss_mb at all.
            base | {"run_id": "r1", "phases": {"release": 0.1}},
            # Garbage peak_rss_mb, phase aggregate not a mapping.
            base | {"run_id": "r2", "phases": {"release": [0.1]},
                    "peak_rss_mb": "lots"},
            # Current shape.
            base | {"run_id": "r3",
                    "phases": {"release": {"count": 1, "wall_s": 0.11,
                                           "cpu_s": 0.1}},
                    "peak_rss_mb": 80.0},
        ]
        for record in legacy:
            assert ledger.append_record(record) is not None
        assert cli.main(["runs", "check"]) == 0
        assert "OK" in capsys.readouterr().out

        # A genuine regression is still caught across the legacy baseline.
        assert ledger.append_record(
            base | {"run_id": "r4",
                    "phases": {"release": {"count": 1, "wall_s": 0.9,
                                           "cpu_s": 0.9}},
                    "peak_rss_mb": 500.0}
        ) is not None
        assert cli.main(["runs", "check"]) == 1
        out = capsys.readouterr().out
        assert "[TIMING]" in out and "'release'" in out

    def test_drift_helpers_coerce_legacy_values(self):
        walls = drift._phase_walls({
            "phases": {"release": 0.25, "merge": {"wall_s": "0.5"},
                       "bad": object(), "worse": {"wall_s": None}},
        })
        assert walls == {"release": 0.25, "merge": 0.5}
        assert drift._phase_walls({"phases": ["not", "a", "dict"]}) == {}
        assert drift._fidelity_devs({"fidelity": {"p": 0.7}}) == {}
        assert drift._peak_rss({"peak_rss_mb": "garbage"}) is None


class TestAcceptance:
    """ISSUE acceptance: clean runs diff drift-free; an injected slow
    phase makes ``repro runs check`` exit nonzero naming that phase."""

    def test_two_clean_runs_then_injected_slow_phase(self, capsys):
        for _ in range(2):
            assert cli.main([
                "report", "--scale", "tiny", "--seed", "7", "--no-cache",
            ]) == 0
        capsys.readouterr()

        records = ledger.read_records()
        assert len(records) == 2
        first = records[0]["run_id"]
        assert records[0]["run_id"] != records[1]["run_id"]
        for record in records:
            assert record["kind"] == "study" and record["command"] == "report"
            assert record["phases"].get("release", {}).get("count") == 1
            assert len(record.get("fidelity") or {}) >= 5

        assert cli.main(["runs", "diff", first, "latest"]) == 0
        assert "fidelity drift: none" in capsys.readouterr().out

        assert cli.main(["runs", "check"]) == 0
        assert "OK" in capsys.readouterr().out

        # Third run with the fault-grammar slow phase: check must fail
        # and name the offending phase.
        assert cli.main([
            "report", "--scale", "tiny", "--seed", "7", "--no-cache",
            "--faults", "phase.release:sleep",
        ]) == 0
        faults.configure(None)
        capsys.readouterr()

        assert cli.main(["runs", "check"]) == 1
        out = capsys.readouterr().out
        assert "[TIMING]" in out and "'release'" in out
