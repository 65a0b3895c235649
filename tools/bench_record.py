"""Add the benchmark runs of one commit to the checked-in trajectory.

    python3 tools/bench_record.py --calibrate [--out-dir perfbench/out]
    python3 tools/bench_record.py [--out-dir perfbench/out] [--commit SHA]
                                  [--note TEXT] [--dest .]
    python3 tools/bench_record.py --compare PARENT CHANGE [--dest .]

With --calibrate it times a fixed calibration and adds it to --out-dir as
a `calibration-*.json` file: a seeded numpy take / multiply / add loop
over one 24-row layer of 8192 points, and a pure-Python loop.  Both are
fixed, so they measure the host, not the code under test.  Run them right
before and right after the benchmark runs.  The first calibration
in a directory draws a session id, and later ones there keep it.

Otherwise it reads the `result-*.json` files that `perfbench/run.py` wrote
to --out-dir, keeps those of one commit (their `environment.git_commit`;
--commit may be a prefix and is needed only when the directory holds runs
of several commits), and writes one entry per workload to
`BENCH_<workload>.json` in --dest.  An entry holds
- the commit, an optional note, and the environment record of the runs
  without its seed (runs whose records differ otherwise are refused, since
  an entry names one machine);
- the session id and the first and last calibration of --out-dir
  (`before` and `after`, null when there are none), so that entries of
  one session compare directly and others through their calibrations;
- the runs: untraced and traced counts, their seeds, and the operations
  attempted and failed over all of them;
- the median, first and third quartile (statistics.quantiles, inclusive) and
  IQR of setup_s, peak_rss_mb and pass_s over the untraced runs, and the
  medians of the metrics they report beside those (`also`);
- the median of each per-layer metric over the traced runs.
Each file is {"workload": name, "entries": [...]}, one entry per commit: an
entry for a commit already there replaces it, in place.  The script writes;
it does not judge.

With --compare it reads the `BENCH_*.json` files in --dest and, for every
workload holding an entry of both commits (each named by a prefix), prints
the median of each end-to-end metric for both, the timings (the metrics
in seconds) divided by the session's mean `numpy_s` calibration, and the
ratio change / parent, which within one session is the same raw or
calibrated.  The mean is over the distinct calibrations the two entries
store.  Entries of different sessions, or without one, are refused: their
medians measure different host states.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import uuid
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("setup_s", "peak_rss_mb", "pass_s")
CALIBRATION_REPEATS = 5


class RecordError(ValueError):
    """The result files cannot make one entry."""


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles and IQR of the values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def medians(dicts: list[dict[str, float]]) -> dict[str, float]:
    names = sorted({name for d in dicts for name in d})
    return {n: statistics.median([d[n] for d in dicts if n in d]) for n in names}


def load(out_dir: Path, commit: str | None) -> tuple[str, list[dict]]:
    """The commit and its result records."""
    paths = sorted(out_dir.glob("result-*.json"))
    results = [json.loads(p.read_text()) for p in paths]
    commits = sorted({r["environment"]["git_commit"] for r in results})
    if commit is not None:
        commits = [c for c in commits if c.startswith(commit)]
    if len(commits) != 1:
        raise RecordError(
            f"{out_dir} holds runs of commits {commits or 'none'} matching "
            f"{commit!r}; name one with --commit"
        )
    chosen = commits[0]
    return chosen, [r for r in results if r["environment"]["git_commit"] == chosen]


def _numpy_loop() -> None:
    """12 terms of one 24-row layer over 8192 points, 20 times."""
    rng = np.random.default_rng(0)
    h = rng.standard_normal((24, 8192))
    acc, tmp = np.zeros((24, 8192)), np.empty((24, 8192))
    terms = [(rng.integers(0, 24, 24), rng.standard_normal((24, 1))) for _ in range(12)]
    for _ in range(20):
        for src, weights in terms:
            np.take(h, src, axis=0, out=tmp, mode="clip")
            np.multiply(tmp, weights, out=tmp)
            np.add(acc, tmp, out=acc)


def _python_loop() -> None:
    total = 0
    for i in range(1_000_000):
        total += i * i % 7


def calibrate(out_dir: Path) -> Path:
    """Time both loops (median of CALIBRATION_REPEATS) and write them, with
    the directory's session id, to a new calibration file."""
    old = [json.loads(p.read_text()) for p in sorted(out_dir.glob("calibration-*.json"))]
    session = old[0]["session"] if old else uuid.uuid4().hex[:12]
    record = {"session": session, "time": time.time()}
    for name, loop in (("numpy_s", _numpy_loop), ("python_s", _python_loop)):
        times = []
        for _ in range(CALIBRATION_REPEATS):
            start = time.perf_counter()
            loop()
            times.append(time.perf_counter() - start)
        record[name] = statistics.median(times)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"calibration-{len(old):03d}.json"
    path.write_text(json.dumps(record) + "\n")
    return path


def calibrations(out_dir: Path) -> dict:
    """The session id and the first and last calibration in out_dir."""
    found = sorted(
        (json.loads(p.read_text()) for p in out_dir.glob("calibration-*.json")),
        key=lambda c: c["time"],
    )
    sessions = sorted({c["session"] for c in found})
    if len(sessions) > 1:
        raise RecordError(f"{out_dir} holds calibrations of sessions {sessions}")
    pick = lambda c: {k: c[k] for k in ("time", "numpy_s", "python_s")}
    return {
        "session": sessions[0] if sessions else None,
        "calibration": {
            "before": pick(found[0]) if found else None,
            "after": pick(found[-1]) if len(found) > 1 else None,
        },
    }


def entry(commit: str, note: str | None, runs: list[dict]) -> dict:
    """The trajectory entry of one workload's runs."""
    envs = [{k: v for k, v in r["environment"].items() if k != "seed"} for r in runs]
    if any(env != envs[0] for env in envs):
        raise RecordError(f"runs of {commit} differ in their environment records")
    plain = [r for r in runs if not r["args"]["trace"]]
    traced = [r for r in runs if r["args"]["trace"]]
    return {
        "commit": commit,
        "note": note,
        "environment": envs[0],
        "runs": {
            "untraced": len(plain),
            "traced": len(traced),
            "seeds": {
                "untraced": sorted(r["args"]["seed"] for r in plain),
                "traced": sorted(r["args"]["seed"] for r in traced),
            },
            "attempted": sum(r["counts"]["attempted"] for r in runs),
            "failed": sum(r["counts"]["failed"] for r in runs),
        },
        "end_to_end": {
            name: spread([r["metrics"][name] for r in plain]) for name in END_TO_END
        }
        if plain
        else {},
        "also": medians([r["also"] for r in plain]),
        "per_layer": medians([r["metrics"] for r in traced]),
    }


def record(
    out_dir: Path, dest: Path, commit: str | None = None, note: str | None = None
) -> list[Path]:
    """Write the entries of one commit; returns the files written."""
    commit, results = load(out_dir, commit)
    session = calibrations(out_dir)
    written = []
    for workload in sorted({r["args"]["workload"] for r in results}):
        runs = [r for r in results if r["args"]["workload"] == workload]
        new = entry(commit, note, runs) | session
        path = dest / f"BENCH_{workload}.json"
        data = {"workload": workload, "entries": []}
        if path.exists():
            data = json.loads(path.read_text())
        old = [i for i, e in enumerate(data["entries"]) if e["commit"] == commit]
        if old:
            data["entries"][old[0]] = new
        else:
            data["entries"].append(new)
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        written.append(path)
    return written


def _entry_of(entries: list[dict], commit: str) -> dict | None:
    found = [e for e in entries if e["commit"].startswith(commit)]
    if len(found) > 1:
        names = [e["commit"] for e in found]
        raise RecordError(f"commit {commit!r} names entries {names}")
    return found[0] if found else None


def compare(dest: Path, parent: str, change: str) -> list[str]:
    """The lines of --compare for the entries of two commits in dest."""
    lines = []
    for path in sorted(dest.glob("BENCH_*.json")):
        data = json.loads(path.read_text())
        pair = [_entry_of(data["entries"], c) for c in (parent, change)]
        if None in pair:
            continue
        old, new = pair
        sessions = [e.get("session") for e in pair]  # older entries have none
        if None in sessions or sessions[0] != sessions[1]:
            raise RecordError(
                f"{data['workload']}: the entries of {old['commit']} and "
                f"{new['commit']} are of sessions {sessions}, not of one"
            )
        calibrations = [c for e in pair for c in e["calibration"].values() if c]
        found = {c["time"]: c["numpy_s"] for c in calibrations}
        scale = statistics.mean(found.values())
        lines += [
            f"{data['workload']}: {old['commit'][:12]} -> {new['commit'][:12]}, "
            f"session {sessions[0]}, numpy_s {scale:.4g} s (mean of {len(found)})",
            f"  {'metric':<12} {'parent':>10} {'change':>10}"
            f" {'parent/numpy_s':>14} {'change/numpy_s':>14} {'ratio':>7}",
        ]
        for name in END_TO_END:
            if name not in old["end_to_end"] or name not in new["end_to_end"]:
                continue
            a, b = (e["end_to_end"][name]["median"] for e in pair)
            # only timings are divided: a memory peak does not scale with the host
            timing = name.endswith("_s")
            scaled = f"{a / scale:14.4g} {b / scale:14.4g}" if timing else ""
            lines.append(f"  {name:<12} {a:10.4g} {b:10.4g} {scaled:>29} {b / a:7.3f}")
    if not lines:
        raise RecordError(
            f"no BENCH_*.json in {dest} holds entries of {parent} and {change}"
        )
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out-dir", type=Path, default=ROOT / "perfbench" / "out")
    p.add_argument("--commit")
    p.add_argument("--note")
    p.add_argument("--dest", type=Path, default=ROOT)
    p.add_argument("--calibrate", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = p.parse_args(argv)
    if args.calibrate:
        print(calibrate(args.out_dir))
        return 0
    try:
        if args.compare:
            lines = compare(args.dest, *args.compare)
        else:
            lines = record(args.out_dir, args.dest, args.commit, args.note)
    except RecordError as err:
        print(err, file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
