"""``run.py --compare A B``: the bounds of ``BENCHMARK.json`` applied to
two result sets.

A result set is a file of run records, one JSON object per line, as
``run.py --append FILE`` writes them; only untraced records carry the
end-to-end metrics that have bounds.  One row per (metric, workload):

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is, and the runs are steady enough to say so
``unresolved``  either side's spread (interquartile range over median)
                is wider than the bound, unless every run of B reads
                better than every run of A
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple


def load_set(path: str) -> Dict[Tuple[str, str], List[float]]:
    """(metric, workload) -> values of the untraced runs in ``path``."""
    values: Dict[Tuple[str, str], List[float]] = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            for name, metric in record["metrics"].items():
                values.setdefault((name, record["workload"]), []).append(
                    metric["value"])
    return values


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def judge(a: List[float], b: List[float], bound: float,
          lower_is_better: bool) -> Dict[str, Any]:
    sign = 1.0 if lower_is_better else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    widest = max(spread(a), spread(b))
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if widest > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    return {"median_a": med_a, "median_b": med_b, "worse_by": worse_by,
            "spread": widest, "verdict": verdict}


def compare(benchmark: Dict[str, Any], path_a: str, path_b: str) -> int:
    set_a, set_b = load_set(path_a), load_set(path_b)
    workloads = [w["name"] for w in benchmark["workloads"]]
    worse = 0
    print(f"{'metric':12s} {'workload':12s} {'unit':5s} {'n':>5s} "
          f"{'median A':>12s} {'median B':>12s} {'worse by':>9s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for metric in benchmark["end_to_end"]:
        for workload in workloads:
            a = set_a.get((metric["name"], workload))
            b = set_b.get((metric["name"], workload))
            if not a or not b:
                print(f"{metric['name']:12s} {workload:12s} "
                      f"missing from {'A' if not a else 'B'}  unresolved")
                continue
            row = judge(a, b, metric["bound"], metric["better"] == "lower")
            worse += row["verdict"] == "worse"
            print(f"{metric['name']:12s} {workload:12s} {metric['unit']:5s} "
                  f"{len(a):2d}/{len(b):<2d} {row['median_a']:12.4f} "
                  f"{row['median_b']:12.4f} {row['worse_by']:+9.1%} "
                  f"{row['spread']:7.1%} {metric['bound']:6.0%}  "
                  f"{row['verdict']}")
    return 1 if worse else 0
