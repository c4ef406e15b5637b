#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the BENCHMARK.json command once per seed on each chosen workload and
prints, for every end-to-end metric, the median and the distance between
the first and third quartiles as a share of the median -- the spread the
metric's bound must cover. Run from the repository root:

    python3 perfbench/spread.py --workloads service --seeds 1-5
    python3 perfbench/spread.py --seeds 1-10 --out perfbench/baseline.json
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def seeds_arg(s):
    lo, _, hi = s.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write medians and spreads to this JSON file")
    ap.add_argument("--record-counts", help="also record each seed's exact counts in this fingerprint file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    ok = True
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            if args.record_counts:
                cmd += ["--record-counts", args.record_counts]
            t0 = time.time()
            out = subprocess.run(cmd, capture_output=True, text=True)
            res = json.loads(out.stdout.strip().splitlines()[-1]) if out.returncode == 0 else None
            if res is None or not res["correct"]:
                print(f"{wl} seed {seed}: FAILED (exit {out.returncode})\n{out.stdout}{out.stderr}", file=sys.stderr)
                ok = False
                continue
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            host = re.search(r"host speed ([\d.]+) .*unscaled (\w+) ([\d.e+]+)", out.stdout)
            host = f" (host speed {host[1]}, unscaled {host[2]} {float(host[3]):.5g})" if host else ""
            print(f"{wl} seed {seed}: {time.time() - t0:.0f}s "
                  + " ".join(f"{n}={res['metrics'][n]['value']:.5g}" for n in bounds) + host, flush=True)
        rows = {}
        for name, vs in values.items():
            if len(vs) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bounds[name], "n": len(vs)}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {wl:8s} {name:12s} median {med:12.6g}  spread {spread:6.1%}  bound {bounds[name]:.0%}{flag}")
        report["workloads"][wl] = rows
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=2)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
