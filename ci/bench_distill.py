"""Distil perfbench records of a parent and a change into one BENCH file.

    python3 ci/bench_distill.py --parent P/.perfbench_out \\
        --change C/.perfbench_out --parent-copy Q/.perfbench_out \\
        --out BENCH_<n>.json

Each directory holds the `--trace 0` records that `perfbench/run.py` wrote
for one tree.  Run the trees in rotating rounds (parent, change, parent
copy, then the next seed in the next order), so that host drift falls on
all of them alike; the parent copy is a second checkout of the parent, and
its spread against the parent is the noise a claim must clear.  For every
workload and end-to-end metric the output gives each tree's median,
quartiles and run count, the change's median relative to the parent's,
and the pairs (same seed) the change won against the parent, with ties
counting for neither.  Metric directions and bounds come from
BENCHMARK.json.  Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_records(directory: str) -> dict:
    """(workload, seed) -> record of every untraced run in `directory`."""
    records = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        records[(rec["workload"], rec["seed"])] = rec
    if not records:
        raise SystemExit(f"bench_distill: no --trace 0 records in {directory}")
    return records


def summary(values: list) -> dict:
    """Median, first and third quartile (inclusive method) and count."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "runs": len(values)}


def _one_or_all(values: list):
    """The common value of `values`, or every distinct one if they differ."""
    distinct = []
    for v in values:
        if v not in distinct:
            distinct.append(v)
    return distinct[0] if len(distinct) == 1 else distinct


def distill(trees: dict, end_to_end: list) -> dict:
    """`trees` maps a tree name ("parent", "change", ...) to its records;
    `end_to_end` is BENCHMARK.json's list of end-to-end metrics."""
    every = [rec for recs in trees.values() for rec in recs.values()]
    out = {
        "trees": list(trees),
        "seconds": _one_or_all([rec["seconds"] for rec in every]),
        "nproc": _one_or_all([rec["machine"]["nproc"] for rec in every]),
        "cpu_model": _one_or_all([rec["machine"]["cpu_model"]
                                  for rec in every]),
        "thread_env": _one_or_all([rec["machine"]["thread_env"]
                                   for rec in every]),
        "versions": _one_or_all([rec["versions"] for rec in every]),
        "workloads": {},
    }
    parent = trees["parent"]
    for workload in sorted({w for w, _ in parent}):
        seeds = sorted(s for w, s in parent if w == workload
                       and all((w, s) in recs for recs in trees.values()))
        if not seeds:
            continue
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            vals = {tree: [recs[(workload, s)]["metrics"][name]["value"]
                           for s in seeds] for tree, recs in trees.items()}
            row = {"unit": spec["unit"], "better": spec["better"],
                   "bound": spec["bound"]}
            row.update((tree, summary(v)) for tree, v in vals.items())
            base = row["parent"]["median"]
            row["change_vs_parent"] = ((row["change"]["median"] - base) / base
                                       if base else None)
            sign = 1.0 if spec["better"] == "higher" else -1.0
            diffs = [sign * (c - p)
                     for c, p in zip(vals["change"], vals["parent"])]
            row["pairs_won"] = sum(d > 0 for d in diffs)
            row["pairs_lost"] = sum(d < 0 for d in diffs)
            metrics[name] = row
        out["workloads"][workload] = {"seeds": seeds, "metrics": metrics}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--parent-copy", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        end_to_end = json.load(fh)["end_to_end"]
    trees = {"parent": load_records(args.parent),
             "change": load_records(args.change),
             "parent_copy": load_records(args.parent_copy)}
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(distill(trees, end_to_end), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
