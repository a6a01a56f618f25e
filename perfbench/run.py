"""seedgrade benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload mini --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout that holds `src/seedgrade`.  The command
generates the workload's corpus from the seed (`corpus.py`), then runs
SESSIONS sessions one after another (`worker.py`), which share the
`--seconds` between them.  A session is a fresh process that imports
seedgrade and loads the corpus (one `setup_s` sample), then runs timed passes,
each in a child forked from that state, one at a time: every pass starts
where a fresh `seedgrade run` process starts, and no cache state carries
between passes.  The client is a closed loop: one caller that sends the next
pair once the last is graded.

With `--trace 0` the passes alternate between a batch pass (`grade_run` plus
`RunReport.write`, as a `seedgrade run` user waits for it) and a pairs pass
(the public `grade` timed one call at a time, as a library or reward-function
caller sees it).  With `--trace 1` they alternate between an untraced batch
pass and a traced one (`spans.py`), which gives the per-layer numbers and the
tracing overhead; both kinds then start from a full garbage collection.
Every timing is scaled to a reference speed of the machine.  Beside each
session's set-up and during each pass the worker times a fixed piece of the
benchmark's own interpreter work (`worker.reference_s`); a time is reported
as measured x REF_S / that reference time.  On a shared host the same code
runs up to twice as slow while other tenants are busy, in phases of seconds
to many minutes; the scaling takes that out and leaves the program's own
cost.  The unscaled figures are printed beside the scaled ones.
Throughput is records over the summed scaled batch-pass time, latency
percentiles are over every call, and `setup_s` is the median over sessions.

Every pass must produce the same record digest (score, verdict and edit
script of every pair); a differing digest, an exception escaping the program
or a score outside [0, 100] fails the run.  The last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Workloads (see corpus.py):
  mini           the bundled 12-item x 2-model corpus: short real answers of
                 all five types, where fixed per-pair costs lead
  synth-correct  300 items x 4 models, all equivalent by construction: stresses
                 parsing, canonicalization and the equivalence check
  synth-miss     12 large expression items 1-3 edits from their ground truth:
                 stresses tree edit distance
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402

RUN_LIMIT_S = 170  # a run must end within 180 s, building included
SESSIONS = 6  # fresh processes per run, each one setup_s sample
# Seconds the reference work (worker.reference_s) takes on an unloaded
# 2.1 GHz Xeon vCPU.  Every timing is given at that speed: scaled by REF_S
# over the reference work's time sampled beside it.
REF_S = 0.0003

# ROADMAP baseline, measured before this benchmark existed (+-20 %)
BASELINE = {
    "mini ms/pair (batch pass)": 0.89,
    "canonicalize calls per grade": 4.8,
    "TED 321x321 nodes, s": 0.95,
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "pair_ms_p50": "ms",
    "pair_ms_p90": "ms",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "verdict_agree": "share",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("share") or name == "trace.overhead":
        return "share"
    if name.endswith("per_pair"):
        return "count/pair"
    if name.endswith("us_per_cell"):
        return "us/cell"
    return "count"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _pct(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def _commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none (not a git checkout)"


def _src_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Failure(Exception):
    pass


def _stop_group(proc) -> None:
    """Kill what is left of a worker's process group and wait until it is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.025)


def run_worker(spec, root, workdir, deadline):
    timeout = deadline - perf_counter()
    if timeout <= 1:
        raise Failure("no time left for a session")
    cmd = [sys.executable, str(HERE / "worker.py"), str(root), str(workdir), json.dumps(spec)]
    # its own process group, so that a pass it forked dies with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"session did not finish within {timeout:.0f} s") from exc
    finally:
        _stop_group(proc)
    if proc.returncode != 0:
        raise Failure(f"session exited with {proc.returncode}:\n{err[-3000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(args, root: Path, workdir: Path, start: float):
    """Run SESSIONS sessions one after another, sharing --seconds between
    them; return the sessions and their passes grouped by kind."""
    deadline = start + RUN_LIMIT_S
    run_worker({"kinds": [], "first": 0, "seconds": 0, "estimate": {}, "seed": 0, "collect": False},
               root, workdir, deadline)  # fills the bytecode cache
    kinds = ["batch", "traced"] if args.trace else ["batch", "pairs"]
    results = {k: [] for k in kinds}
    sessions = []
    estimate: dict = {}
    t0 = perf_counter()
    j = 0
    for s in range(SESSIONS):
        budget = max(0.0, (args.seconds - (perf_counter() - t0)) / (SESSIONS - s))
        spec = {"kinds": kinds, "first": j, "seconds": budget, "estimate": estimate,
                "seed": args.seed, "collect": bool(args.trace)}
        session = run_worker(spec, root, workdir, deadline)
        sessions.append(session)
        for p in session["passes"]:
            results[p["mode"]].append(p)
        for k, v in results.items():
            if v:
                estimate[k] = statistics.median(p["pass_s"] for p in v)
        j = session["next"]
    return sessions, results


def _scale(r) -> float:
    """The factor that turns a time measured in a pass or session into
    seconds at the reference speed: REF_S over the reference work's time
    sampled beside it."""
    return REF_S / r["ref_s"]


def _rate(batch, scaled=True) -> float:
    """Records over the summed (scaled) time of the batch passes."""
    return (sum(r["records"] for r in batch)
            / sum(r["pass_s"] * (_scale(r) if scaled else 1.0) for r in batch))


def end_to_end(sessions, results, labels):
    batch, pairs = results["batch"], results["pairs"]
    passes = batch + pairs
    setup = [s["setup_s"] * _scale(s) for s in sessions]
    raw_setup = statistics.median(s["setup_s"] for s in sessions)
    rate = [r["records"] / (r["pass_s"] * _scale(r)) for r in batch]
    lat = [x * _scale(r) for r in pairs for x in r["lat_ms"]]
    raw_lat = [x for r in pairs for x in r["lat_ms"]]
    rss = [r["rss_mb"] for r in batch]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    verdicts = pairs[0]["verdicts"]
    pos = [k for k, v in labels.items() if v]
    neg = [k for k, v in labels.items() if not v]
    hits = sum(verdicts.get(k, False) for k in pos)
    false_acc = sum(verdicts.get(k, False) for k in neg)
    agree = sum(verdicts.get(k, False) == v for k, v in labels.items())
    rows = [
        ("setup_s", statistics.median(setup), _quartiles(setup),
         f"{len(setup)} processes; unscaled {raw_setup:.4g}"),
        ("pairs_per_s", _rate(batch), _quartiles(rate),
         f"{len(rate)} batch passes; unscaled {_rate(batch, scaled=False):.4g}"),
        ("pair_ms_p50", _pct(lat, 50), _quartiles([_pct(r["lat_ms"], 50) * _scale(r) for r in pairs]),
         f"{len(lat)} calls in {len(pairs)} pairs passes; unscaled {_pct(raw_lat, 50):.4g}"),
        ("pair_ms_p90", _pct(lat, 90), _quartiles([_pct(r["lat_ms"], 90) * _scale(r) for r in pairs]),
         f"{len(lat) - int(0.9 * len(lat))} calls beyond; unscaled {_pct(raw_lat, 90):.4g}"),
        ("peak_rss_mb", statistics.median(rss), _quartiles(rss), f"{len(rss)} batch passes"),
        ("fail_share", failed / attempted, None, f"{failed} of {attempted} pairs"),
        ("equiv_recall", hits / len(pos) if pos else None, None, f"base {len(pos)} labelled equivalent"),
        ("equiv_false_accept", false_acc / len(neg) if neg else None, None,
         f"base {len(neg)} labelled non-equivalent"),
        ("ok_share", 1 - failed / attempted, None, "1 - fail_share"),
        ("verdict_agree", agree / len(labels), None, f"{agree} of {len(labels)} labelled pairs"),
    ]
    units = dict(END_TO_END_UNITS, fail_share="share", equiv_recall="share", equiv_false_accept="share")
    return rows, units, attempted, failed


def per_layer(sessions, results):
    batch, traced = results["batch"], results["traced"]
    layers = [r["layers"] for r in traced]
    rows = []
    for name in layers[0]:
        values = [m[name] for m in layers]
        if values[0] is None:
            rows.append((name, None, None, "absent"))
            continue
        if per_layer_unit(name) in ("s", "us/cell"):
            values = [v * _scale(r) for v, r in zip(values, traced)]
        rows.append((name, statistics.median(values), _quartiles(values), f"{len(values)} traced passes"))
    load = [s["load_dataset_s"] * _scale(s) for s in sessions]
    rows.append(("harness.load_dataset_s", statistics.median(load), _quartiles(load),
                 f"{len(load)} processes"))
    over = _rate(batch) / _rate(traced) - 1
    rows.append(("trace.overhead", over, None, "traced / untraced batch pass time - 1"))
    attempted = sum(r["attempted"] for r in batch + traced)
    failed = sum(r["failed"] for r in batch + traced)
    return rows, attempted, failed


def baseline_check(workload, results):
    """Traced-run values beside the ROADMAP baseline, flagged beyond +-20 %."""
    batch, traced = results["batch"], results["traced"]
    got = {}
    if workload == "mini":
        answered = batch[0]["attempted"]
        got["mini ms/pair (batch pass)"] = 1000 * statistics.median(
            r["pass_s"] * _scale(r) for r in batch) / answered
        got["canonicalize calls per grade"] = traced[0]["layers"]["canon.canonicalize.per_pair"]
    spans = [(sizes, dur * _scale(r)) for r in traced for sizes, dur in r["ted_spans"]]
    if spans:
        (a, b), dur = min(spans, key=lambda s: abs(s[0][0] - 321) + abs(s[0][1] - 321))
        if abs(a - 321) + abs(b - 321) <= 60:
            got["TED 321x321 nodes, s"] = dur * 321 * 321 / (a * b)
    lines = []
    for name, ref in BASELINE.items():
        if name not in got:
            lines.append(f"baseline  {name:<32} ref {ref:<6} n/a on this workload")
            continue
        dev = got[name] / ref - 1
        flag = "FLAG" if abs(dev) > 0.2 else "ok"
        lines.append(f"baseline  {name:<32} ref {ref:<6} got {got[name]:.4g}  {dev:+.0%}  {flag}")
    return lines


def check_outputs(results):
    """Every pass must give the same digest and no failed pair."""
    passes = [r for v in results.values() for r in v]
    digests = {r["digest"] for r in passes}
    problems = [e for r in passes for e in r["errors"]]
    if len(digests) != 1:
        problems.append(f"record digests differ between passes: {sorted(digests)}")
    return digests, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="seedgrade benchmark (one workload, one run)")
    ap.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # on SIGTERM unwind normally: the running worker is killed and waited for
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = perf_counter()
    root = Path.cwd()
    src = root / "src" / "seedgrade"
    if not (src / "__init__.py").is_file():
        print(f"error: no seedgrade sources at {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    work = root / ".perfbench_work"
    workdir = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        props = corpus.generate(args.workload, args.seed, workdir)
        labels = json.loads((workdir / "labels.json").read_text("utf-8"))
        sessions, results = measure(args, root, workdir, start)
        if args.trace:
            shutil.copy(workdir / "spans.jsonl", work / f"spans-{args.workload}.jsonl")
    except Failure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mpmath_version = __import__("mpmath").__version__
    print(f"seedgrade benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"env  cpus={os.cpu_count()} python={platform.python_version()} mpmath={mpmath_version} "
          f"commit={_commit(root)} src_sha256={_src_digest(src)}")
    print("corpus  " + " ".join(f"{k}={v}" for k, v in sorted(props.items())))
    print("passes  " + " ".join(f"{k}={len(v)}" for k, v in results.items())
          + f"  (each forked after set-up in one of {len(sessions)} sessions; closed loop, 1 client)")
    ref = statistics.median(r["ref_s"] for v in results.values() for r in v)
    print(f"machine  reference work {1000 * ref:.4g} ms against REF_S {1000 * REF_S:g} ms: "
          f"timings are scaled by {REF_S / ref:.4g}")
    digests, problems = check_outputs(results)
    print(f"digest  {'/'.join(sorted(digests))}")

    if args.trace:
        rows, attempted, failed = per_layer(sessions, results)
        units = {name: per_layer_unit(name) for name, *_ in rows}
        wanted = [name for name, *_ in rows]
    else:
        rows, units, attempted, failed = end_to_end(sessions, results, labels)
        wanted = list(END_TO_END_UNITS)
    metrics = {}
    for name, value, q, note in rows:
        unit = units[name]
        if value is None:
            print(f"metric  {name:<28} absent  ({note})")
        else:
            spread = f"  q1={q[0]:.6g} q3={q[2]:.6g}" if q else ""
            print(f"metric  {name:<28} {value:<14.6g} {unit:<10}{spread}  ({note})")
        if name in wanted:
            metrics[name] = {"value": 0 if value is None else value, "unit": unit}
    if args.trace:
        for line in baseline_check(args.workload, results):
            print(line)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
