#!/usr/bin/env python3
"""Measure the benchmark's baseline: medians and run-to-run spreads.

    python3 benchmark/baseline.py --out benchmark/baseline.json

Run from the repository root.  For every workload and seed it runs
benchmark/run.py once untraced and once traced, each for BENCHMARK.json's
run_seconds, and records for every metric the median over the seeds, the
quartiles and the spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles).  Per-layer metrics
whose span the workload's path never opens are listed under "absent" instead.
It exits 1 if any run fails or reports a failed check, and names each
end-to-end metric whose spread is not below a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = list(range(1, 11))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("benchmark", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}")
    result = json.loads(lines[-1])
    if result["failed"] != 0:
        raise RuntimeError(f"{' '.join(cmd)}: {result['failed']} checks failed")
    # The detail document before the result line names the absent metrics,
    # which the result line carries as 0.
    absent = json.loads("\n".join(lines[:-1]))["absent"]
    return ({k: v["value"] for k, v in result["metrics"].items()
             if k not in absent}, absent)


def summarize(samples):
    med = statistics.median(samples)
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "samples": samples}


def write_baseline(path, doc):
    """Writes doc as JSON with one metric per line, so diffs stay readable."""
    with open(path, "w") as f:
        f.write('{\n "run_seconds": %d,\n "seeds": %s,\n "workloads": {'
                % (doc["run_seconds"], json.dumps(doc["seeds"])))
        for i, (w, groups) in enumerate(doc["workloads"].items()):
            f.write('%s\n  %s: {' % ("," if i else "", json.dumps(w)))
            for j, (group, metrics) in enumerate(groups.items()):
                f.write('%s\n   %s: ' % ("," if j else "", json.dumps(group)))
                if group == "absent":
                    f.write(json.dumps(metrics))
                    continue
                f.write("{" + ",".join(
                    "\n    %s: %s" % (json.dumps(k), json.dumps(v))
                    for k, v in metrics.items()))
                f.write("\n   }")
            f.write("\n  }")
        f.write("\n }\n}\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    doc = {"run_seconds": spec["run_seconds"], "seeds": SEEDS,
           "workloads": {}}
    wide = []
    for workload in spec["workloads"]:
        w = workload["name"]
        entry = {}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            samples = {}
            absent = set()
            for seed in SEEDS:
                print(f"{w} seed {seed} trace {trace}", file=sys.stderr,
                      flush=True)
                values, missing = run_once(w, seed, spec["run_seconds"], trace)
                for k, v in values.items():
                    samples.setdefault(k, []).append(v)
                absent.update(missing)
            entry[group] = {k: summarize(v) for k, v in samples.items()}
            if absent:
                entry["absent"] = sorted(absent)
        for name, bound in bounds.items():
            spread = entry["end_to_end"][name]["spread"]
            if spread is not None and spread >= bound / 3:
                wide.append(f"{w}/{name}: spread {spread:.4f}, bound {bound}")
        doc["workloads"][w] = entry

    write_baseline(args.out, doc)
    for line in wide:
        print("spread not below a third of the bound: " + line,
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
