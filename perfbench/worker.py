"""One session of the benchmark: set up once, then timed passes in forked
children.

A session is a fresh interpreter that imports seedgrade and loads the corpus
(its set-up time is one `setup_s` sample).  Each timed pass then runs in a
child forked from that state, so every pass starts exactly where a fresh
`seedgrade run` process starts after loading, and no cache state (seedgrade
keeps module-level caches) carries from one pass to the next.  The session
itself never grades anything.

    python3 perfbench/worker.py ROOT WORKDIR SPEC

ROOT is the checkout that holds `src/seedgrade`; WORKDIR holds the corpus.
SPEC is a JSON object:
  kinds     pass kinds to cycle through: "batch", "pairs", "traced";
            empty for a set-up-only session (used to fill the bytecode cache)
  first     index into kinds of the first pass
  seconds   time budget for the passes
  estimate  expected seconds of a pass, by kind: a pass is started only if
            it is expected to end within the budget (a kind not yet run
            always runs)
  seed      seed of the pairs passes' call order
  collect   start every pass with a full garbage collection (traced runs)

Pass kinds:
  batch   one `grade_run` plus `RunReport.write` over the corpus
  pairs   the public `grade` on every pair, timed one call at a time
  traced  like batch, with every layer wrapped by `spans.Tracer`

Each session and each pass also reports `ref_s`, the time of a fixed piece
of reference work sampled beside it (`reference_s`); `run.py` scales every
timing by it.  The result is printed as one JSON line.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _record_line(key, score, equivalent, edit_script) -> str:
    return json.dumps([key, score, equivalent, edit_script])


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


REF_EVERY_S = 0.2  # how often a pass samples the machine's speed
_ref = {"work": None, "samples": [], "spent": 0.0}


def _reference_work():
    """Fixed inputs for `reference_s`: four 30-node rational trees from the
    benchmark's own generator, rendered and evaluated with exact fractions,
    the kind of interpreter work (recursion, strings, Fraction arithmetic)
    seedgrade does.  It runs no seedgrade code, so a change to seedgrade
    cannot change it."""
    from fractions import Fraction

    import corpus

    rng = random.Random(0)
    pool = corpus._symbol_pool(rng, 6)
    trees = [corpus.tree_near(rng, 30, pool, 0.0) for _ in range(4)]
    env = {name: Fraction(3 + j, 7) for j, name in enumerate(pool)}
    return corpus, trees, env, corpus.Style(random.Random(1), noisy=True)


def reference_s() -> float:
    """Best of three runs of the reference work: how long the machine takes
    for it right now."""
    if _ref["work"] is None:
        _ref["work"] = _reference_work()
    corpus, trees, env, style = _ref["work"]
    best = float("inf")
    for _ in range(3):
        t = perf_counter()
        for tree in trees:
            corpus.render(tree, style)
            corpus.evaluate(tree, env)
        best = min(best, perf_counter() - t)
    return best


def _sample_speed(*_) -> None:
    t = perf_counter()
    _ref["samples"].append(reference_s())
    _ref["spent"] += perf_counter() - t


def run_pass(*args) -> dict:
    """`_run_pass`, timing the reference work before it and after every
    REF_EVERY_S seconds of CPU time during it (`ref_s` is the mean); the
    sampling time is left out of the pass and call times."""
    _sample_speed()
    _ref["spent"] = 0.0
    # a CPU-time timer and its own signal, so that a program that sets
    # alarms of its own (a time budget per grade) does not clash with it
    signal.signal(signal.SIGVTALRM, _sample_speed)
    signal.setitimer(signal.ITIMER_VIRTUAL, REF_EVERY_S, REF_EVERY_S)
    try:
        out = _run_pass(*args)
    finally:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
    out["ref_s"] = statistics.fmean(_ref["samples"])
    return out


def _run_pass(seedgrade, mode, items, responses, workdir, order_seed, collect) -> dict:
    """One timed pass over the corpus; meant to run in a forked child.

    With `collect` the pass starts with a full garbage collection.  A traced
    run sets it for both kinds of pass: importing and installing the tracer
    allocates enough to move the collector's next full collection, which
    alone makes a pass up to a tenth faster or slower."""
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    if collect:
        gc.collect()

    answered = {(i, m) for i, m, _ in responses}
    errors: list = []
    lines: list = []
    verdicts: dict = {}
    failed = 0
    out: dict = {"mode": mode}
    if mode == "pairs":
        by_id = {it.id: it for it in items}
        order = sorted(responses)
        random.Random(order_seed).shuffle(order)
        lat = []
        for item_id, model, text in order:
            item = by_id[item_id]
            key = f"{item_id}|{model}"
            start = perf_counter() - _ref["spent"]
            try:
                result = seedgrade.grade(text, item.ground_truth, item.answer_type)
            except Exception as exc:  # an escaping exception is a failed pair
                lat.append(1000 * (perf_counter() - _ref["spent"] - start))
                failed += 1
                errors.append(f"{key}: {type(exc).__name__}: {exc}"[:300])
                lines.append(_record_line(key, "exception", type(exc).__name__, None))
                continue
            lat.append(1000 * (perf_counter() - _ref["spent"] - start))
            rec = result.to_dict()
            lines.append(_record_line(key, rec["score"], rec["equivalent"], rec["edit_script"]))
            verdicts[key] = rec["score"]
        out["lat_ms"] = lat
        out["pass_s"] = sum(lat) / 1000
    else:
        start = perf_counter() - _ref["spent"]
        try:
            report = seedgrade.grade_run(items, responses)
            report.write(workdir / f"out-{mode}-{os.getpid()}")
        except Exception as exc:  # one escaping exception aborts the whole run
            failed = len(answered)
            errors.append(f"grade_run aborted: {type(exc).__name__}: {exc}"[:300])
            report = None
        out["pass_s"] = perf_counter() - _ref["spent"] - start
        out["records"] = len(report.records) if report is not None else 0
        for rec in report.records if report is not None else ():
            key = f"{rec['id']}|{rec['model']}"
            if (rec["id"], rec["model"]) in answered:
                lines.append(_record_line(key, rec["score"], rec["equivalent"], rec["edit_script"]))
                verdicts[key] = rec["score"]
    for key, score in verdicts.items():
        if not 0.0 <= score <= 100.0:
            failed += 1
            errors.append(f"{key}: score {score} outside [0, 100]")
    out.update(
        digest=_digest(lines),
        failed=failed,
        attempted=len(answered),
        errors=errors[:20],
        verdicts={k: v == 100.0 for k, v in verdicts.items()},
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.uninstall()
        from spans import layer_metrics

        out["layers"] = layer_metrics(tracer.spans, tracer.absent)
        out["ted_spans"] = [[s.info["sizes"], s.end - s.start] for s in tracer.spans
                            if s.name == "ted" and s.info]
        tracer.dump(workdir / "spans.jsonl")
    return out


def forked_pass(*args) -> dict:
    """Run `run_pass` in a child forked from this process and wait for it."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(rfd)
        code = 0
        try:
            payload = json.dumps(run_pass(*args)).encode()
        except BaseException:
            payload = json.dumps({"crash": traceback.format_exc()[-3000:]}).encode()
            code = 1
        try:
            with os.fdopen(wfd, "wb") as fh:
                fh.write(payload)
        finally:
            os._exit(code)
    os.close(wfd)
    try:
        with os.fdopen(rfd, "rb") as fh:
            payload = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    result = json.loads(payload) if payload else {"crash": "pass process died without a result"}
    if "crash" in result:
        raise RuntimeError(f"pass crashed (status {status}):\n{result['crash']}")
    return result


def main(argv) -> dict:
    root, workdir, spec = Path(argv[0]), Path(argv[1]), json.loads(argv[2])
    src = root / "src"
    t0 = perf_counter()
    sys.path.insert(0, str(src))
    import seedgrade

    if not Path(seedgrade.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"seedgrade imported from {seedgrade.__file__}, not {src}")
    t1 = perf_counter()
    items = seedgrade.load_dataset(workdir / "dataset.jsonl")
    t2 = perf_counter()
    responses = seedgrade.load_responses(workdir / "responses.jsonl")
    t3 = perf_counter()
    # sampled after the timed set-up: the reference work imports the generator
    out = {"setup_s": t3 - t0, "load_dataset_s": t2 - t1, "passes": [],
           "ref_s": statistics.fmean(reference_s() for _ in range(3))}

    kinds, estimate = spec["kinds"], spec["estimate"]
    sys.stdout.flush()
    start = perf_counter()
    j = spec["first"]
    while kinds:
        mode = kinds[j % len(kinds)]
        left = spec["seconds"] - (perf_counter() - start)
        if mode in estimate and estimate[mode] > left:
            break
        order_seed = spec["seed"] * 100003 + j
        result = forked_pass(seedgrade, mode, items, responses, workdir, order_seed,
                             spec["collect"])
        out["passes"].append(result)
        estimate[mode] = result["pass_s"]
        j += 1
    out["next"] = j
    return out


if __name__ == "__main__":
    try:
        result = main(sys.argv[1:])
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    print(json.dumps(result))
