"""The committed benchmark records: every root BENCH_*.json is complete.

Each record holds, per workload named in BENCHMARK.json and per
end-to-end metric, the parent's and the change's medians over the
alternating run pairs, and those medians, the quartiles and the count
of pairs the change wins follow from the runs it lists.  A record that
claims a gain names the workload and the end-to-end metric first in its
`claim`, and on that metric the change is better in at least 9 of the
10 pairs, by a median gap wider than the parent's interquartile range.
"""

from __future__ import annotations

import json
import math
import statistics
from numbers import Real
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_record_has_both_medians_for_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        record = json.loads(path.read_text(encoding="utf-8"))
        for w in workloads:
            for m in metrics:
                for side in ("parent", "change"):
                    median = record["workloads"][w][m][side]["median"]
                    assert isinstance(median, Real), (path.name, w, m, side)


def test_every_claimed_gain_holds_on_its_pairs_and_quartiles():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {w["name"] for w in spec["workloads"]}
    # every end-to-end metric is better lower; a claim on any other fails
    lower = {m["name"] for m in spec["end_to_end"] if m["better"] == "lower"}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("gain_claimed") is not True:
            continue
        workload, metric = record["claim"].split()[:2]
        assert workload in workloads, (path.name, workload)
        assert metric in lower, (path.name, metric)
        sides = record["workloads"][workload][metric]
        parent, change = sides["parent"], sides["change"]
        where = (path.name, workload, metric)
        assert sides["change_better_pairs"] >= 9, where
        assert (parent["median"] - change["median"]
                > parent["q3"] - parent["q1"]), where


def test_every_bench_record_recomputes_from_its_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    for path in sorted(ROOT.glob("BENCH_*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for w in workloads:
            for m in metrics:
                sides = record["workloads"][w][m]
                where = (path.name, w, m)
                for side in ("parent", "change"):
                    stats = sides[side]
                    q1, median, q3 = statistics.quantiles(
                        stats["runs"], n=4, method="inclusive")
                    for got, want in ((stats["q1"], q1),
                                      (stats["median"], median),
                                      (stats["q3"], q3)):
                        assert math.isclose(got, want, rel_tol=1e-12), (
                            *where, side)
                parent, change = sides["parent"]["runs"], sides["change"]["runs"]
                assert len(parent) == len(change), where
                wins = sum(c < p for p, c in zip(parent, change))
                assert sides["change_better_pairs"] == wins, where
