#!/usr/bin/env python3
"""Print every end-to-end and per-layer metric of every workload, by name and unit.

    python3 perfbench/summary.py [--seed 1] [--seconds 25] [--write perfbench/baseline.json]

Runs `run.py` once untraced and once traced per workload, checks the result
against BENCHMARK.json (metric names and units; the unaccounted time is not
negative, and with the layers' self times it adds up to the traced wall
time) and prints one table. With --write the numbers, the
run counts and the environment are stored as JSON.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def invoke(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    for line in lines[:-1]:
        if line.startswith("FAILED"):
            print(f"{workload} trace={trace}: {line}")
    return json.loads(lines[-1]), env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--write", type=Path, help="store the results as JSON at this path")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    ok = True
    results, envs = {}, {}
    for w in bench["workloads"]:
        name = w["name"]
        results[name] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            res, envs[name] = invoke(name, args.seed, seconds, trace)
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            want = {m["name"]: m["unit"] for m in bench[kind]}
            if got != want:
                print(f"{name} {kind}: metrics or units differ from BENCHMARK.json")
                ok = False
            ok &= res["correct"] and res["failed"] == 0
            results[name][kind] = res
        split = {m: v["value"] for m, v in results[name]["per_layer"]["metrics"].items()}
        total = sum(split[f"{layer}.self_s"] for layer in LAYERS) + split["trace.unaccounted_s"]
        if split["trace.unaccounted_s"] < 0 or abs(total - split["trace.wall_s"]) > 1e-6:
            print(f"{name}: unaccounted {split['trace.unaccounted_s']}, layer self times + unaccounted = {total},"
                  f" traced wall = {split['trace.wall_s']}")
            ok = False

    names = [w["name"] for w in bench["workloads"]]
    print(f"{'metric':42s} {'unit':6s}" + "".join(f"{n:>16s}" for n in names))
    print(f"{'failed_runs':42s} {'runs':6s}" + "".join(
        f"{str(sum(r[k]['failed'] for k in r)) + '/' + str(sum(r[k]['attempted'] for k in r)):>16s}"
        for r in results.values()))
    for kind in ("end_to_end", "per_layer"):
        for metric in bench[kind]:
            m = metric["name"]
            print(f"{m:42s} {declared[m]:6s}" + "".join(
                f"{results[n][kind]['metrics'][m]['value']:16.6g}" for n in names))
    if args.write:
        doc = {"seed": args.seed, "run_seconds": seconds, "environment": envs, "results": results}
        args.write.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print("all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
