"""``python -m bench compare A.json B.json``: did B regress against A?

One row per (workload, end-to-end metric) with both medians and
quartiles and a verdict under the bounds fixed in ``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread of either side (interquartile
  range over median) exceeds the bound, unless every run of one side
  beats every run of the other;
* ``worse`` / ``better`` — B's median is worse / better than A's by
  more than the bound;
* ``same`` — otherwise.

B also fails when a workload or its samples are missing, when more of
its operations failed, or when its fingerprint or any exact count
(``*.calls``, ``sim.engine.events`` …) differs from A's: two runs of one
program at one seed repeat those exactly.

This is the no-regression rule only.  A claimed *gain* needs the paired
protocol of the README (ten alternating parent/change pairs).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple


def verdict(a: Dict[str, Any], b: Dict[str, Any], bound: float, better: str) -> str:
    """Verdict for one metric from two ``runner.summarize`` records."""
    sign = 1.0 if better == "lower" else -1.0
    # Positive = B is worse, as a share of A's median.
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max(a["spread"], b["spread"])
    a_runs = [sign * x for x in a["samples"]]
    b_runs = [sign * x for x in b["samples"]]
    separated = max(a_runs) < min(b_runs) or max(b_runs) < min(a_runs)
    if spread > bound and not separated:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def _cell(s: Dict[str, Any]) -> str:
    return f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"


def compare(a: Dict[str, Any], b: Dict[str, Any], contract: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether B passes (see the module docstring)."""
    for side, data in (("A", a), ("B", b)):
        if data["provenance"]["quick"]:
            raise ValueError(f"{side} is a --quick result: not comparable")
    lines = [
        f"{'workload':<19}{'metric':<13}{'A median [q1, q3]':>28}"
        f"{'B median [q1, q3]':>28}{'change':>9}  verdict"
    ]
    passed = True
    for name in (w["name"] for w in contract["workloads"]):
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            lines.append(f"{name:<19}missing from {'A' if wa is None else 'B'}")
            passed = False
            continue
        if wb["failed"] * wa["attempted"] > wa["failed"] * wb["attempted"]:
            lines.append(
                f"{name:<19}ops failed {wa['failed']}/{wa['attempted']} -> "
                f"{wb['failed']}/{wb['attempted']}  worse"
            )
            passed = False
        for metric in contract["end_to_end"]:
            sa, sb = wa["stats"].get(metric["name"]), wb["stats"].get(metric["name"])
            if sa is None or sb is None:
                lines.append(
                    f"{name:<19}{metric['name']:<13}no samples in "
                    f"{'A' if sa is None else 'B'}"
                )
                passed = False
                continue
            result = verdict(sa, sb, metric["bound"], metric["better"])
            passed = passed and result != "worse"
            change = (sb["median"] - sa["median"]) / sa["median"]
            lines.append(
                f"{name:<19}{metric['name']:<13}{_cell(sa):>28}{_cell(sb):>28}"
                f"{change:>+9.1%}  {result}"
            )
        same_counts = wa.get("exact") == wb.get("exact")
        same_print = wa.get("fingerprint") == wb.get("fingerprint")
        passed = passed and same_counts and same_print
        lines.append(
            f"{name:<19}counts {'identical' if same_counts else 'DIFFER'}, "
            f"fingerprint {'identical' if same_print else 'DIFFERS'}"
        )
    return lines, passed


def main(path_a: str, path_b: str, contract: Dict[str, Any]) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    try:
        lines, passed = compare(a, b, contract)
    except ValueError as exc:
        print(f"bench compare: {exc}")
        return 2
    print("\n".join(lines))
    print("PASS" if passed else
          "FAIL: a metric is worse beyond its bound, more operations failed, "
          "or samples, counts or fingerprints are missing or differ")
    return 0 if passed else 1
