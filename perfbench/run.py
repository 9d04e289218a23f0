"""Benchmark of `verify`: one model on one lattice in; a theorem verdict with
S, degeneracy and cone margins out.

Run from the repository root:

    python3 perfbench/run.py --workload diag_cone --seed 1 --seconds 10 --trace 0

One caller issues the workload's `verify` calls back to back in a fixed order
(a closed loop) and serializes each report with `edspin.cli.report_emit`.
Whole passes over the calls repeat until their measured time reaches
``--seconds``.  Every call's emitted report is checked: verdict, 2S and
degeneracy against the theorem, E0 against a stored reference.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their times
are taken to the reference host speed of ``probe.py``: a measured time is
multiplied by the run's ``SpeedProbe.scale``, whose kernels sample the
host's speed twice a second throughout the untraced passes.  wall_s is
scaled by the speed of the resource ``workloads.BOUND_BY`` names, setup_s,
which imports modules, by the speed of Python code.  The probe's own time
is subtracted from the calls it interrupts, and its array from the peak
resident memory.  ``--trace 1`` first repeats the untraced passes, then
installs timing wrappers at the package's layer boundaries, repeats the
passes traced, prints the per-layer metrics, among them the raw untraced
wall time and the mean probe times, and writes the spans to
``perfbench/out/``.  In the traced passes each probe sample is a span of its
own, so the layers' self times leave it out.  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = BENCH_DIR / "out"

E0_RTOL = 1e-8      # relative agreement with the stored reference E0
SETUP_PER_SLOT = 1  # fresh interpreters timed before each call and after the last pass

# Self time of these spans makes the per-layer time metrics.
SPAN_METRIC = {
    "fock.enumerate_sector": "fock.enumerate_s",
    "hamiltonians.build": "hamiltonians.build_s",
    "hamiltonians.validate": "hamiltonians.validate_s",
    "operators.total_spin_squared": "operators.s2_s",
    "operators.ladder_ops": "operators.ladder_s",
    "spectra.ground_space": "spectra.ground_space_s",
    "spectra.lanczos_ground": "spectra.ground_space_s",
    "spectra.total_spin_of": "spectra.total_spin_s",
    "cones.build": "cones.build_s",
    "cones.ergodicity": "cones.ergodicity_s",
    "cones.strict": "cones.strict_s",
    "verify": "verify.self_s",
    "cli.emit": "cli.emit_s",
}

# Setup: a fresh interpreter imports edspin and builds the workload's specs.
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "workloads.WORKLOADS[sys.argv[3]]()")


@dataclass(frozen=True)
class Outcome:
    """What one call's emitted report said, or the error it raised."""

    label: str
    expected: object
    verdict: str | None = None
    twice_s: int | None = None
    degeneracy: int | None = None
    e0: float | None = None
    sectors: int = 0
    error: str | None = None

    @property
    def spin_ok(self) -> bool:
        exp = self.expected
        return (self.error is None and self.twice_s == exp.twice_s
                and self.degeneracy == exp.twice_s + 1)

    @property
    def theorem_ok(self) -> bool:
        """Verdict, 2S and degeneracy as the theorem predicts."""
        return self.spin_ok and self.verdict == self.expected.verdict

    @property
    def numbers_ok(self) -> bool:
        """2S, degeneracy and E0 right; the verdict alone may still be wrong."""
        exp = self.expected
        return self.spin_ok and abs(self.e0 - exp.e0) <= E0_RTOL * max(1.0, abs(exp.e0))

    @property
    def ok(self) -> bool:
        return self.theorem_ok and self.numbers_ok


@dataclass(frozen=True)
class Pass:
    """One pass over the workload's calls; ``spans`` indexes its trace spans."""

    wall: float
    outcomes: list[Outcome]
    spans: slice


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _pin_blas_threads() -> None:
    # One thread: a BLAS call spread over shared cores waits for the slowest
    # of them, and the probe samples the speed of one core only.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _time_setup(workload: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR), workload],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def _outcome(call, text: str) -> Outcome:
    doc = json.loads(text)
    glob = doc["global"]
    s = glob["S_computed"]
    return Outcome(call.label, call.expected, doc["verdict"],
                   None if s is None else round(2 * s), glob["degeneracy"],
                   glob["E0"], len(doc["sectors"]))


def _run_pass(calls, seed: int, report_emit, tracer, between, speed) -> Pass:
    """One closed-loop pass; the wall time covers each call and its emit only,
    not ``between``, which runs before each call, nor the time ``speed``
    spent probing inside a call."""
    first_span = len(tracer.spans) if tracer else 0
    wall = 0.0
    outcomes = []
    for call in calls:
        between()
        try:
            probed = speed.total
            if tracer is None:
                start = time.perf_counter()
                text = report_emit(call.entry(call.spec, seed=seed).to_dict())
            else:
                tracer.call += 1
                start = time.perf_counter()
                with tracer.span("verify"):
                    report = call.entry(call.spec, seed=seed)
                with tracer.span("cli.emit"):
                    text = report_emit(report.to_dict())
            wall += time.perf_counter() - start - (speed.total - probed)
            outcomes.append(_outcome(call, text))
        except Exception as exc:  # a raising call is a failed operation; go on
            traceback.print_exc()
            outcomes.append(Outcome(call.label, call.expected,
                                    error=f"{type(exc).__name__}: {exc}"))
    return Pass(wall, outcomes, slice(first_span, len(tracer.spans) if tracer else 0))


def _run_passes(calls, seed, seconds, report_emit, speed, tracer=None,
                between=lambda: None) -> list[Pass]:
    """Passes until their summed wall time reaches ``seconds``.  A pass in
    which a call raised ends the run: a raising call adds no wall time, so
    the budget alone might never be reached."""
    passes = []
    while not passes or (sum(p.wall for p in passes) < seconds
                         and not any(o.error for o in passes[-1].outcomes)):
        passes.append(_run_pass(calls, seed, report_emit, tracer, between, speed))
    return passes


def _layer_metrics(spans, own, p: Pass) -> dict:
    """Per-layer metrics of one traced pass from its spans and self times."""
    sectors = sum(o.sectors for o in p.outcomes)
    m = dict.fromkeys(SPAN_METRIC.values(), 0.0)
    calls = Counter(s.name for s in spans)
    for s, t in zip(spans, own):
        if s.name in SPAN_METRIC:  # the other spans are probe samples, no layer
            m[SPAN_METRIC[s.name]] += t

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in spans if s.name == name)

    solves = [s for s in spans if s.name == "spectra.ground_space"]
    # a solve took the Krylov route if spectra.lanczos_ground ran inside it
    solve_ids = {p.spans.start + i for i, s in enumerate(spans)
                 if s.name == "spectra.ground_space"}
    krylov_ids = {s.parent for s in spans if s.name == "spectra.lanczos_ground"}
    m.update({
        "fock.enumerate_calls": calls["fock.enumerate_sector"],
        "fock.states": total("fock.enumerate_sector", "states"),
        "fock.enumerate_calls_per_sector": calls["fock.enumerate_sector"] / max(1, sectors),
        "hamiltonians.build_calls": calls["hamiltonians.build"],
        "hamiltonians.h_nnz": total("hamiltonians.build", "nnz"),
        "operators.s2_calls": calls["operators.total_spin_squared"],
        "operators.s2_nnz": total("operators.total_spin_squared", "nnz"),
        "operators.ladder_calls": calls["operators.ladder_ops"],
        "spectra.ground_space_calls": len(solves),
        "spectra.krylov_calls": len(solve_ids & krylov_ids),
        "spectra.solves_per_sector": len(solves) / max(1, sectors),
        "spectra.residual_max": max((s.counts.get("residual", 0.0) for s in solves),
                                    default=0.0),
        "cones.ergodicity_calls": calls["cones.ergodicity"],
        "verify.calls": len(p.outcomes),
        "verify.sectors": sectors,
        "verify.wrong_verdict_share": (sum(not o.theorem_ok for o in p.outcomes)
                                       / len(p.outcomes)),
        "trace.wall_s": p.wall,
    })
    return m


COUNT_METRICS = ("fock.enumerate_calls", "fock.states", "fock.enumerate_calls_per_sector",
                 "hamiltonians.build_calls", "hamiltonians.h_nnz", "operators.s2_calls",
                 "operators.s2_nnz", "operators.ladder_calls",
                 "spectra.ground_space_calls", "spectra.krylov_calls",
                 "spectra.solves_per_sector", "cones.ergodicity_calls",
                 "verify.calls", "verify.sectors", "verify.wrong_verdict_share")


def _traced_metrics(spans, own, passes, untraced, speeds, resource,
                    missing) -> tuple[dict, bool]:
    """Per-layer metrics over the traced passes: medians of times, counts
    that must repeat exactly from pass to pass.  ``speeds`` are the probes of
    the untraced and the traced passes; the tracing overhead compares the
    two at the reference speed of ``resource``."""
    per_pass = [_layer_metrics(spans[p.spans], own[p.spans], p) for p in passes]
    repeat_ok = all(pm[k] == per_pass[0][k] for pm in per_pass for k in COUNT_METRICS)
    if not repeat_ok:
        print("error: count metrics differ between passes of one run", file=sys.stderr)
    metrics = {k: (per_pass[0][k] if k in COUNT_METRICS
                   else statistics.median(pm[k] for pm in per_pass))
               for k in per_pass[0]}
    speed, traced_speed = speeds
    raw_wall = statistics.median(p.wall for p in untraced)
    metrics["trace.overhead_share"] = (metrics["trace.wall_s"] * traced_speed.scale(resource)
                                       / (raw_wall * speed.scale(resource)) - 1.0)
    metrics["trace.missing_wrappers"] = len(missing)
    metrics["host.raw_wall_s"] = raw_wall
    metrics["host.python_probe_ms"] = 1e3 * speed.mean("python")
    metrics["host.memory_probe_ms"] = 1e3 * speed.mean("memory")
    return metrics, repeat_ok


def _emit(declared: list[dict], values: dict, passes, repeat_ok: bool) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    names = [d["name"] for d in declared]
    if sorted(names) != sorted(values):
        raise SystemExit(f"error: computed metrics {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(names)}")
    for d in declared:
        print(f"  {d['name']:<36} {values[d['name']]:>16.6g} {d['unit']}")
    return {"correct": repeat_ok and all(o.numbers_ok for o in outcomes),
            "attempted": len(outcomes),
            "failed": sum(not o.ok for o in outcomes),
            "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                        for d in declared}}


def _print_outcomes(outcomes) -> None:
    for o in outcomes:
        exp = o.expected
        if o.error:
            state = f"RAISED {o.error}"
        else:
            state = (f"verdict {o.verdict} (theorem: {exp.verdict})  2S {o.twice_s} "
                     f"(theorem: {exp.twice_s})  degeneracy {o.degeneracy}  "
                     f"E0 {o.e0!r} (reference {exp.e0!r})")
        print(f"  {'ok  ' if o.ok else 'FAIL'} {o.label}: {state}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "edspin" / "__init__.py").is_file() or not SPEC_FILE.is_file():
        print(f"error: run from a checkout holding src/edspin and BENCHMARK.json "
              f"(looked in {ROOT})", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_FILE.read_text())
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    _pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import edspin
    from edspin.cli import report_emit
    if Path(edspin.__file__).resolve().parent != (SRC / "edspin").resolve():
        print(f"error: imported edspin from {edspin.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import probe
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    calls = workloads.WORKLOADS[args.workload]()

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    if not args.trace:
        # set-ups are timed between the calls, so that their median spans
        # the whole run rather than one stretch of it
        setup: list[float] = []

        def time_setups():
            with speed.paused():
                setup.extend(_time_setup(args.workload) for _ in range(SETUP_PER_SLOT))

        with probe.SpeedProbe().running() as speed:
            passes = _run_passes(calls, args.seed, args.seconds, report_emit, speed,
                                 between=time_setups)
            time_setups()
        _print_outcomes(passes[0].outcomes)
        outcomes = [o for p in passes for o in p.outcomes]
        raw_wall, raw_setup = (statistics.median(p.wall for p in passes),
                               statistics.median(setup))
        bound_by = workloads.BOUND_BY[args.workload]
        # the probe's array is resident from before the first call to the end,
        # so the high-water mark holds it exactly once
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        values = {
            "wall_s": raw_wall * speed.scale(bound_by),
            "peak_rss_mb": (peak_rss - probe.MEMORY_ARRAY_BYTES) / 2**20,
            "setup_s": raw_setup * speed.scale("python"),
            "right_verdict_share": sum(o.theorem_ok for o in outcomes) / len(outcomes),
        }
        print(f"{len(passes)} passes, {len(setup)} set-ups; raw wall_s {raw_wall:.4f}, "
              f"raw setup_s {raw_setup:.4f}; {len(speed.samples['python'])} probes, "
              f"mean python {1e3 * speed.mean('python'):.4f} ms, "
              f"memory {1e3 * speed.mean('memory'):.4f} ms; wall_s at the "
              f"reference {bound_by} speed")
        result = _emit(spec["end_to_end"], values, passes, True)
    else:
        with probe.SpeedProbe().running() as speed:
            untraced = _run_passes(calls, args.seed, args.seconds, report_emit, speed)
        tracer = tracing.Tracer()
        missing: list[str] = []
        with (tracing.installed(tracer, missing),
              probe.SpeedProbe(tracer).running() as traced_speed):
            traced = _run_passes(calls, args.seed, args.seconds, report_emit,
                                 traced_speed, tracer)
        _print_outcomes(traced[0].outcomes)
        for name in missing:
            print(f"  layer missing: {name} no longer exists")
        values, repeat_ok = _traced_metrics(tracer.spans, tracing.self_times(tracer.spans),
                                            traced, untraced, (speed, traced_speed),
                                            workloads.BOUND_BY[args.workload], missing)
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "spans": tracer.to_json()}))
        print(f"{len(untraced)} untraced and {len(traced)} traced passes")
        result = _emit(spec["per_layer"], values, untraced + traced, repeat_ok)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
