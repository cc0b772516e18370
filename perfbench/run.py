"""Benchmark `verlinde` through its public Python API, one workload per run.

    python3 perfbench/run.py --workload rings --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
`src/`.  One client in one process asks one question at a time (a
closed loop).  The run answers whole rounds of the workload's question
list, each round built afresh from the seed and the round number, until
`--seconds` have passed, at least two rounds are done and at least 200
questions are answered.  Every answer is checked against `oracle`
outside the timed part.

The machine this runs on may be shared, and its speed can change by half
for minutes at a time.  So every time is scaled to a reference speed by
the fixed kernel in `calibrate`, timed right before and right after each
question and each set-up (the raw times go to the result file), and
every statistic is a median over the run's rounds or set-ups.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` rounds alternate untraced and
traced, and it carries the per-layer metrics instead (per traced round).
A copy of the result, tagged with the Python version, the git revision
and the processor count, goes to `perfbench/results/`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import calibrate
import workloads
from tracer import COUNTS, LAYERS, TRACED, Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 7
MIN_QUESTIONS = 200
MIN_ROUNDS = 2
# after two rounds, start no further round past this point whatever the
# question count, so a slow build of the library still ends in minutes
HARD_STOP_S = 120.0

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms",
              "op_p95_ms": "ms", "peak_rss_mib": "MiB"}


def import_library() -> SimpleNamespace:
    """(Re-)import `verlinde` from this checkout's `src/`."""
    for name in [m for m in sys.modules
                 if m == "verlinde" or m.startswith("verlinde.")]:
        del sys.modules[name]
    pkg = importlib.import_module("verlinde")
    return SimpleNamespace(pkg=pkg, **{
        m: importlib.import_module(f"verlinde.{m}")
        for m in ("exact", "fusion", "surfaces", "tqft", "categories",
                  "formats")})


def round_rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def setup(workload: str, seed: int):
    """Import the library and build round 0; return the median time too.

    The time is scaled to the reference speed, as every question's is.
    """
    times, gauges = [], [calibrate.gauge()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        lib = import_library()
        bench = workloads.WORKLOADS[workload](lib, ROOT)
        first = bench.round(round_rng(workload, seed, 0), frozenset())
        times.append(time.perf_counter() - start)
        gauges.append(calibrate.gauge())
    return statistics.median(calibrate.scale(times, gauges)), lib, bench, \
        first


def ask_round(questions, tracer, qbase):
    """Answer every question; return raw and scaled times and outcomes."""
    times, gauges, failures = [], [calibrate.gauge()], []
    for i, q in enumerate(questions):
        if tracer is not None:
            tracer.question = qbase + i
        start = time.perf_counter()
        try:
            answer, error = q.ask(), None
        except Exception as err:  # a crash is a wrong answer, reported
            answer, error = None, f"{type(err).__name__}: {err}"
        times.append(time.perf_counter() - start)
        gauges.append(calibrate.gauge())
        problem = error or q.check(answer)
        if problem:
            failures.append((q.kind, q.known_fault, problem))
    return times, calibrate.scale(times, gauges), failures


def percentile(values, share):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * share) - 1)]


def git_revision(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rings", "frobenius", "completions"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "verlinde" / "__init__.py").is_file():
        print(f"error: no src/verlinde under {ROOT}; run from the root of a "
              "verlinde checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    setup_s, lib, bench, questions = setup(args.workload, args.seed)
    if Path(lib.pkg.__file__).resolve().parent != (ROOT / "src" /
                                                   "verlinde").resolve():
        print(f"error: imported verlinde from {lib.pkg.__file__}",
              file=sys.stderr)
        return 2

    tracer = Tracer(lib) if args.trace else None

    walls = {False: [], True: []}
    scaled_rounds, failures, kinds = [], [], {}
    attempted = repeated = 0
    peak_rss = None
    begin = time.perf_counter()
    index = 0
    seen = set()
    while True:
        if index:
            questions = bench.round(
                round_rng(args.workload, args.seed, index), seen)
        repeated += sum(q.key in seen for q in questions)
        seen.update(q.key for q in questions)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.install()
        try:
            times, scaled, fails = ask_round(
                questions, tracer if traced else None, attempted)
        finally:
            if traced:
                tracer.uninstall()
        walls[traced].append(sum(times))
        if not traced:
            scaled_rounds.append(scaled)
        for q, t in zip(questions, times):
            kinds.setdefault(q.kind, []).append(t)
        failures += fails
        attempted += len(questions)
        if peak_rss is None:
            peak_rss = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        index += 1
        elapsed = time.perf_counter() - begin
        if index >= MIN_ROUNDS and (elapsed >= HARD_STOP_S or (
                elapsed >= args.seconds and attempted >= MIN_QUESTIONS)):
            break

    unexpected = [f for f in failures if not f[1]]
    result = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": len(failures),
    }
    if tracer is None:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(map(sum, scaled_rounds)),
            "op_p50_ms": statistics.median(
                statistics.median(r) for r in scaled_rounds) * 1e3,
            "op_p95_ms": statistics.median(
                percentile(r, 0.95) for r in scaled_rounds) * 1e3,
            "peak_rss_mib": peak_rss,
        }
        result["metrics"] = {k: {"value": v, "unit": END_TO_END[k]}
                             for k, v in metrics.items()}
    else:
        result["metrics"] = layer_metrics(tracer, walls)

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result)
    record.update({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "python": platform.python_version(),
        "revision": git_revision(ROOT), "nproc": os.cpu_count(),
        "rounds": index, "repeated_questions": repeated,
        "round_wall_s": walls,
        "scaled_round_wall_s": [sum(r) for r in scaled_rounds],
        "failures": failures[:20],
        "questions_per_kind": {
            k: {"count": len(v), "median_ms": statistics.median(v) * 1e3,
                "total_s": sum(v)} for k, v in sorted(kinds.items())},
    })
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(out / f"{stem}-spans.json")
    for kind, _, problem in unexpected[:5]:
        print(f"wrong answer ({kind}): {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def layer_metrics(tracer, walls) -> dict:
    """Per traced round: layer self times, call counts and times, counts."""
    rounds = len(walls[True])
    stats = tracer.stats
    metrics = {f"{layer}.self_s": (tracer.self_s[layer] / rounds, "s")
               for layer in LAYERS}
    for _, _, _, name, _ in TRACED:
        metrics[f"{name}.calls"] = (stats[f"{name}.calls"] / rounds, "count")
        metrics[f"{name}.s"] = (stats[f"{name}.s"] / rounds, "s")
    for name in COUNTS:
        metrics[name] = (stats[name] / rounds, "count")
    candidates = stats["categories.karoubi_candidates"]
    metrics["categories.karoubi_accept_ratio"] = (
        stats["categories.karoubi_objects"] / candidates if candidates
        else 0.0,
        "ratio")
    # round 0 fills the library's caches; leave it out when we can
    untraced = walls[False][1:] or walls[False]
    metrics["trace.overhead_s"] = (
        statistics.mean(walls[True]) - statistics.mean(untraced), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
