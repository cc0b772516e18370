"""The committed benchmark records: every root BENCH_*.json is complete.

Each record holds, per workload named in BENCHMARK.json and per
end-to-end metric, the parent's and the change's medians over the
alternating run pairs.
"""

from __future__ import annotations

import json
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
