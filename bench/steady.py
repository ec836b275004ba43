"""Steadiness check: two sets of benchmark runs compared against the bounds.

Usage (from the repository root):

    python3 bench/steady.py

Two sets of ``RUNS`` runs each: a set runs ``bench/run.py --trace 0`` once
per seed and workload of BENCHMARK.json, for its ``run_seconds``, one run
at a time, workloads interleaved; every run gets its own seed (1 to 20).
For each workload and end-to-end metric it prints each set's median and
spread (distance between the first and third quartile of the runs, as
``statistics.quantiles(n=4)`` gives them, over the median), and the drift
(how much worse the second median is than the first, as a share of the
first).  A metric passes when both spreads and the drift stay within its
bound; the target for a steady benchmark is a spread below a third of the
bound.  The raw results, with the environment line of each run, go to
``.bench_work/steady-<time>.json``.  Exit status 1 if any run failed or any
metric is outside its bound.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "error": proc.stderr[-1000:], "metrics": {}}
    result = json.loads(lines[-1])
    env = [line[4:] for line in lines if line.startswith("env ")]
    result["env"] = json.loads(env[-1]) if env else None
    return result


def spread(values) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]

    results = {w: [[] for _ in range(SETS)] for w in workloads}
    ok = True
    for k in range(SETS):
        for i in range(RUNS):
            seed = 1 + k * RUNS + i
            for w in workloads:
                res = run_once(w, seed, spec["run_seconds"])
                res["seed"] = seed
                results[w][k].append(res)
                if not res["correct"]:
                    ok = False
                    print(f"FAILED run: {w} seed {seed}: {res.get('error', '')}", flush=True)
                print(f"set {k + 1} seed {seed} {w}: " + "  ".join(
                    f"{m}={v['value']:.5g}" for m, v in res["metrics"].items()), flush=True)

    print(f"\n{'workload':12s} {'metric':14s} {'bound':>6s} "
          f"{'median1':>10s} {'spread1':>8s} {'median2':>10s} {'spread2':>8s}   drift")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [[r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
                    for runs in results[w]]
            if any(len(values) < 2 for values in sets):
                ok = False
                print(f"{w:12s} {name:14s} fewer than two values in a set")
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            sign = 1 if m["better"] == "lower" else -1
            drift = sign * (medians[1] - medians[0]) / medians[0]
            flags = []
            if any(s > bound for s in spreads):
                flags.append("SPREAD>BOUND")
            elif any(s > bound / 3 for s in spreads):
                flags.append("spread>bound/3")
            if drift > bound:
                flags.append("DRIFT>BOUND")
            if any(f.isupper() for f in flags):
                ok = False
            print(f"{w:12s} {name:14s} {bound:6.3f} "
                  + " ".join(f"{md:10.5g} {sp:8.4f}" for md, sp in zip(medians, spreads))
                  + f" {drift:+7.4f}  " + " ".join(flags))

    out = ROOT / ".bench_work" / f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
