"""Run every workload untraced and traced, at one or more seeds, and check
the benchmark's own invariants.

Run from the repository root:

    python3 perfbench/suite.py --seeds 1 2

Prints the end-to-end metrics per workload, then the traced per-layer table
for the same workloads.  Exits 1 if any run reports incorrect output, if a
count metric or verdict share differs between seeds, if a workload does
work its mechanism should bypass (cone work on krylov_phonon, Krylov solves
on psd_cone).
"""

import argparse
import json
import subprocess
import sys

from run import BENCH_DIR, COUNT_METRICS, ROOT, SPEC_FILE

# Cone work is idle on krylov_phonon and Krylov solves are idle on psd_cone.
IDLE = {"krylov_phonon": ("cones.ergodicity_s", "cones.ergodicity_calls"),
        "psd_cone": ("spectra.krylov_calls",)}


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _table(title: str, declared: list[dict], results: dict) -> None:
    keys = list(results)
    print(f"\n{title}")
    print(f"  {'metric':<34} {'unit':<14}" + "".join(f" {k:>24}" for k in keys))
    for d in declared:
        cells = "".join(f" {results[k]['metrics'][d['name']]['value']:>24.6g}" for k in keys)
        print(f"  {d['name']:<34} {d['unit']:<14}{cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_FILE.read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    e2e, layers = {}, {}
    for seed in args.seeds:
        for w in workloads:
            e2e[f"{w}/seed{seed}"] = _run(w, seed, seconds, 0)
            layers[f"{w}/seed{seed}"] = _run(w, seed, seconds, 1)
    _table("end-to-end (untraced)", spec["end_to_end"], e2e)
    _table("per layer (traced)", spec["per_layer"], layers)

    problems = []
    for key, res in {**e2e, **layers}.items():
        if not res["correct"]:
            problems.append(f"{key}: incorrect output")
    for w in workloads:
        first = f"{w}/seed{args.seeds[0]}"
        for seed in args.seeds[1:]:
            key = f"{w}/seed{seed}"
            for name in COUNT_METRICS:
                a, b = (layers[k]["metrics"][name]["value"] for k in (first, key))
                if a != b:
                    problems.append(f"{name} on {w}: {a} at {first}, {b} at {key}")
            a, b = (e2e[k]["metrics"]["right_verdict_share"]["value"] for k in (first, key))
            if a != b:
                problems.append(f"right_verdict_share on {w}: {a} at {first}, {b} at {key}")
        for seed in args.seeds:
            m = layers[f"{w}/seed{seed}"]["metrics"]
            for name in IDLE.get(w, ()):
                if m[name]["value"] != 0:
                    problems.append(f"{name} on {w}/seed{seed} is {m[name]['value']}, not 0")
    print()
    for p in problems:
        print(f"FAIL: {p}")
    print("all checks passed" if not problems else f"{len(problems)} checks failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
