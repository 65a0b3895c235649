import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

ENV = {"nproc": 2, "python": "3.11.7", "git_commit": "abc123", "seed": 0}


def _result(out_dir, workload, seed, trace, metrics, commit="abc123", failed=0):
    """A result file in the layout perfbench/run.py writes."""
    env = dict(ENV, git_commit=commit, seed=seed)
    data = {
        "args": {"workload": workload, "seed": seed, "seconds": 55.0, "trace": trace},
        "environment": env,
        "counts": {"attempted": 10, "failed": failed},
        "metrics": metrics,
        "also": {} if trace else {"small_p50_ms": 1.0 + seed},
    }
    path = out_dir / f"result-{workload}-seed{seed}-trace{trace}-{commit}.json"
    path.write_text(json.dumps(data))


def _plain(seed):
    return {"setup_s": 0.1 * seed, "peak_rss_mb": 50.0, "pass_s": 1.0 + seed}


def test_entry_schema(tmp_path, quick_calibration):
    out, dest = tmp_path / "out", tmp_path / "dest"
    out.mkdir()
    dest.mkdir()
    for seed in (1, 2, 3, 4, 5):
        _result(out, "eval_deep", seed, 0, _plain(seed), failed=int(seed == 2))
    _result(out, "eval_deep", 7, 1, {"core.evaluate_batch.busy_s": 2.0})
    _result(out, "eval_deep", 8, 1, {"core.evaluate_batch.busy_s": 4.0})
    _result(out, "verify_codec", 1, 0, _plain(1))
    _result(out, "verify_codec", 9, 0, _plain(9), commit="def456")

    assert bench_record.main(["--out-dir", str(out), "--dest", str(dest)]) == 2
    bench_record.calibrate(out)
    bench_record.calibrate(out)
    bench_record.calibrate(out)
    assert bench_record.main(
        ["--out-dir", str(out), "--dest", str(dest), "--commit", "abc", "--note", "n"]
    ) == 0
    data = json.loads((dest / "BENCH_eval_deep.json").read_text())
    assert data["workload"] == "eval_deep"
    (entry,) = data["entries"]
    assert set(entry) == {
        "commit", "note", "environment", "runs", "end_to_end", "also", "per_layer",
        "session", "calibration",
    }
    calibrations = sorted(out.glob("calibration-*.json"))
    first, last = (json.loads(p.read_text()) for p in calibrations[::2])
    assert len(calibrations) == 3 and entry["session"] == first["session"] == last["session"]
    assert entry["calibration"] == {
        "before": {k: first[k] for k in ("time", "numpy_s", "python_s")},
        "after": {k: last[k] for k in ("time", "numpy_s", "python_s")},
    }
    assert entry["calibration"]["after"]["time"] > entry["calibration"]["before"]["time"]
    assert (entry["commit"], entry["note"]) == ("abc123", "n")
    assert entry["environment"] == {"nproc": 2, "python": "3.11.7", "git_commit": "abc123"}
    assert entry["runs"] == {
        "untraced": 5,
        "traced": 2,
        "seeds": {"untraced": [1, 2, 3, 4, 5], "traced": [7, 8]},
        "attempted": 70,
        "failed": 1,
    }
    assert set(entry["end_to_end"]) == {"setup_s", "peak_rss_mb", "pass_s"}
    assert entry["end_to_end"]["pass_s"] == {
        "median": 4.0, "q1": 3.0, "q3": 5.0, "iqr": 2.0
    }
    assert entry["end_to_end"]["peak_rss_mb"]["iqr"] == 0.0
    assert entry["also"] == {"small_p50_ms": 4.0}
    assert entry["per_layer"] == {"core.evaluate_batch.busy_s": 3.0}
    codec = json.loads((dest / "BENCH_verify_codec.json").read_text())["entries"]
    assert [e["end_to_end"]["pass_s"]["median"] for e in codec] == [2.0]

    # another commit appends; the same commit again replaces its entry
    bench_record.record(out, dest, "def456")
    bench_record.record(out, dest, "abc123")
    codec = json.loads((dest / "BENCH_verify_codec.json").read_text())["entries"]
    assert [e["commit"] for e in codec] == ["abc123", "def456"]
    assert codec[0]["note"] is None


def test_runs_on_two_machines_are_refused(tmp_path):
    _result(tmp_path, "eval_deep", 1, 0, _plain(1))
    _result(tmp_path, "eval_deep", 2, 0, _plain(2))
    path = tmp_path / "result-eval_deep-seed2-trace0-abc123.json"
    data = json.loads(path.read_text())
    data["environment"]["nproc"] = 4
    path.write_text(json.dumps(data))
    with pytest.raises(bench_record.RecordError, match="environment"):
        bench_record.record(tmp_path, tmp_path)


@pytest.fixture
def quick_calibration(monkeypatch):
    monkeypatch.setattr(bench_record, "CALIBRATION_REPEATS", 1)
    monkeypatch.setattr(bench_record, "_numpy_loop", lambda: None)
    monkeypatch.setattr(bench_record, "_python_loop", lambda: None)


def test_calibration_loops_take_measurable_time():
    for loop in (bench_record._numpy_loop, bench_record._python_loop):
        start = bench_record.time.perf_counter()
        loop()
        assert bench_record.time.perf_counter() - start > 1e-3


def test_entries_without_calibrations_have_no_session(tmp_path):
    _result(tmp_path, "eval_deep", 1, 0, _plain(1))
    bench_record.record(tmp_path, tmp_path)
    (entry,) = json.loads((tmp_path / "BENCH_eval_deep.json").read_text())["entries"]
    assert entry["session"] is None
    assert entry["calibration"] == {"before": None, "after": None}


def test_calibrations_of_two_sessions_are_refused(tmp_path, quick_calibration):
    _result(tmp_path, "eval_deep", 1, 0, _plain(1))
    assert bench_record.main(["--calibrate", "--out-dir", str(tmp_path)]) == 0
    path = bench_record.calibrate(tmp_path)
    data = json.loads(path.read_text())
    path.write_text(json.dumps(dict(data, session="other")))
    with pytest.raises(bench_record.RecordError, match="sessions"):
        bench_record.record(tmp_path, tmp_path)


def _session_of_two_commits(out, dest):
    """BENCH files in dest with entries of abc123 and def456 from one session
    whose two calibrations read numpy_s 1 and 3 s."""
    out.mkdir()
    dest.mkdir()
    for seed in (1, 2, 3):
        _result(out, "eval_deep", seed, 0, _plain(seed))
        _result(out, "eval_deep", seed + 10, 0, _plain(seed + 1), commit="def456")
    for value in (1.0, 3.0):
        path = bench_record.calibrate(out)
        path.write_text(json.dumps(dict(json.loads(path.read_text()), numpy_s=value)))
    bench_record.record(out, dest, "abc123")
    bench_record.record(out, dest, "def456")


def test_compare_prints_raw_and_calibrated_medians(tmp_path, quick_calibration, capsys):
    out, dest = tmp_path / "out", tmp_path / "dest"
    _session_of_two_commits(out, dest)
    assert bench_record.main(["--compare", "abc", "def", "--dest", str(dest)]) == 0
    head, columns, *rows = capsys.readouterr().out.splitlines()
    assert head.startswith("eval_deep: abc123 -> def456, session ")
    assert head.endswith("numpy_s 2 s (mean of 2)")
    assert columns.split()[0] == "metric"
    # medians 0.2 / 0.3, 50 / 50 and 3 / 4, over the session's mean numpy_s 2
    assert [row.split() for row in rows] == [
        ["setup_s", "0.2", "0.3", "0.1", "0.15", "1.500"],
        ["peak_rss_mb", "50", "50", "1.000"],
        ["pass_s", "3", "4", "1.5", "2", "1.333"],
    ]


def test_compare_refuses_entries_of_two_sessions(tmp_path, quick_calibration, capsys):
    out, dest = tmp_path / "out", tmp_path / "dest"
    _session_of_two_commits(out, dest)
    path = dest / "BENCH_eval_deep.json"
    data = json.loads(path.read_text())
    for session in ("other", None):
        data["entries"][1]["session"] = session
        path.write_text(json.dumps(data))
        assert bench_record.main(["--compare", "abc", "def", "--dest", str(dest)]) == 2
        assert "not of one" in capsys.readouterr().err
    with pytest.raises(bench_record.RecordError, match="holds entries"):
        bench_record.compare(dest, "abc", "fff")


def test_every_function_the_traced_benchmark_wraps_is_a_module_attribute(monkeypatch):
    # traced runs of perfbench/run.py replace these attributes in place, and
    # stop with a KeyError at set-up if a module no longer holds one
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    from relubench.layers import layer_targets
    from relubench.tracing import Tracer

    for owner, attr, _ in layer_targets(Tracer()):
        assert attr in vars(owner), f"{owner.__name__}.{attr}"
