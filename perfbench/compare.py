#!/usr/bin/env python3
"""Collects perfbench runs and compares two sets of them.

    # N runs of one checkout, one seed each, appended as JSON lines:
    python3 perfbench/compare.py collect --workload W --seeds 1-10 --out runs.jsonl

    # Run-to-run spread of each end-to-end metric (IQR / median) over every
    # run in the files, repeat runs of a seed included:
    python3 perfbench/compare.py spread runs.jsonl [more.jsonl ...]

    # Alternating parent/change pairs, one seed per pair:
    python3 perfbench/compare.py pairs --parent DIR --change DIR \\
        --workload W --seeds 1-10 --out-parent p.jsonl --out-change c.jsonl

    # One row per (workload, metric): medians, quartiles, verdict:
    python3 perfbench/compare.py report p.jsonl c.jsonl

A verdict is "better" or "worse" only when the winning side won at least
9/10 of the pairs (ties count for neither) and the medians differ by more
than the parent's interquartile range; otherwise "unresolved".  "in bound"
says whether the change's median stays within the metric's bound of the
parent's median.  Metric names, directions and bounds come from
BENCHMARK.json at the root of the checkout holding this script.
"""
import argparse
import json
import os
import statistics
import subprocess

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    """'1-10' or '3,5,8' -> list of ints."""
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-", 1)
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(checkout, workload, seed, seconds):
    """Runs the benchmark untraced in `checkout`; returns the result line."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=1000)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def append_run(path, workload, seed, result):
    with open(path, "a") as f:
        f.write(json.dumps({"workload": workload, "seed": seed,
                            "result": result}) + "\n")


def read_runs(paths):
    """{(workload, seed): [result, ...]} of the runs in JSONL files.

    Every run is kept: repeat runs of a seed, in one file or across files,
    are listed in the order they were read.
    """
    runs = {}
    for path in paths:
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    key = (rec["workload"], rec["seed"])
                    runs.setdefault(key, []).append(rec["result"])
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values_of(runs, workload, metric):
    return [r["metrics"][metric]["value"]
            for (w, _), results in sorted(runs.items()) if w == workload
            for r in results if metric in r["metrics"]]


def cmd_collect(args):
    seconds = load_benchmark()["run_seconds"]
    for seed in parse_seeds(args.seeds):
        result = run_once(ROOT, args.workload, seed, seconds)
        append_run(args.out, args.workload, seed, result)
        print(f"{args.workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)


def cmd_spread(args):
    bench = load_benchmark()
    runs = read_runs(args.files)
    workloads = sorted({w for w, _ in runs})
    print(f"{'workload':14s} {'metric':16s} {'n':>3s} {'median':>14s} "
          f"{'iqr/med':>8s} {'bound':>6s}  ok(<bound/3)")
    for w in workloads:
        for m in bench["end_to_end"]:
            vals = values_of(runs, w, m["name"])
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            ok = "yes" if spread < m["bound"] / 3 else "NO"
            print(f"{w:14s} {m['name']:16s} {len(vals):3d} {med:14.6g} "
                  f"{spread:8.4f} {m['bound']:6.2f}  {ok}")


def cmd_pairs(args):
    seconds = load_benchmark()["run_seconds"]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        sides = [(args.parent, args.out_parent), (args.change, args.out_change)]
        if i % 2 == 1:
            sides.reverse()  # alternate which side runs first
        for checkout, out in sides:
            result = run_once(checkout, args.workload, seed, seconds)
            append_run(out, args.workload, seed, result)
        print(f"pair {i + 1}: seed {seed} done", flush=True)


def verdict(parent, change, lower_is_better):
    """better / worse / unresolved for paired per-seed values."""
    pairs = list(zip(parent, change))
    sign = -1.0 if lower_is_better else 1.0
    change_wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent_wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, med_p, q3 = quartiles(parent)
    med_c = statistics.median(change)
    gap_clear = abs(med_c - med_p) > (q3 - q1)
    if gap_clear and change_wins >= 0.9 * len(pairs) and sign * (med_c - med_p) > 0:
        return "better"
    if gap_clear and parent_wins >= 0.9 * len(pairs) and sign * (med_c - med_p) < 0:
        return "worse"
    return "unresolved"


def paired(parent, change, workload):
    """[(parent result, change result)] matched by seed; repeat runs of a
    seed pair up in the order they were read."""
    pairs = []
    for (w, seed), p_results in sorted(parent.items()):
        if w == workload and (w, seed) in change:
            pairs.extend(zip(p_results, change[(w, seed)]))
    return pairs


def cmd_report(args):
    bench = load_benchmark()
    parent = read_runs([args.parent])
    change = read_runs([args.change])
    workloads = sorted({w for w, _ in parent} & {w for w, _ in change})
    print(f"{'workload':14s} {'metric':16s} {'pairs':>5s} "
          f"{'parent q1/med/q3':>32s} {'change q1/med/q3':>32s} "
          f"{'delta':>8s} {'in bound':>8s}  verdict")
    for w in workloads:
        pairs = paired(parent, change, w)
        for m in bench["end_to_end"]:
            name = m["name"]
            p = [pr["metrics"][name]["value"] for pr, _ in pairs]
            c = [cr["metrics"][name]["value"] for _, cr in pairs]
            if not p:
                continue
            lower = m["better"] == "lower"
            pq = quartiles(p)
            cq = quartiles(c)
            delta = (cq[1] - pq[1]) / pq[1] if pq[1] else float("inf")
            worse_by = delta if lower else -delta
            in_bound = "yes" if worse_by <= m["bound"] else "no"
            print(f"{w:14s} {name:16s} {len(pairs):5d} "
                  f"{pq[0]:10.4g}/{pq[1]:10.4g}/{pq[2]:10.4g} "
                  f"{cq[0]:10.4g}/{cq[1]:10.4g}/{cq[2]:10.4g} "
                  f"{delta:+8.2%} {in_bound:>8s}  {verdict(p, c, lower)}")
        failed_p = sum(pr["failed"] for pr, _ in pairs)
        failed_c = sum(cr["failed"] for _, cr in pairs)
        print(f"{w:14s} {'failed jobs':16s} parent {failed_p}, change {failed_c}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(fn=cmd_collect)

    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    s.set_defaults(fn=cmd_spread)

    p = sub.add_parser("pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True)
    p.add_argument("--out-parent", required=True)
    p.add_argument("--out-change", required=True)
    p.set_defaults(fn=cmd_pairs)

    r = sub.add_parser("report")
    r.add_argument("parent")
    r.add_argument("change")
    r.set_defaults(fn=cmd_report)

    args = ap.parse_args()
    args.fn(args)


if __name__ == "__main__":
    main()
