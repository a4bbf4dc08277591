"""snftm benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload study --seed 1 --seconds 30 --trace 0

Run from the root of a source tree holding ``src/snftm`` and ``configs``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: with ``--trace 0`` the end-to-end
metrics (``setup_s``, ``peak_rss_mb``, ``step1_s`` .. ``step5_s``), with
``--trace 1`` the per-layer metrics of a separate traced run.  The lines
before it give the same numbers under the names the issue tracker cites,
with sample counts and a high percentile, and the machine facts.  A side
record, and with ``--trace 1`` the spans, go to ``perfbench/out/``.  When an
operation fails the result is still printed, with ``correct`` false and
without the metrics that have no sample, and the exit code is 1.
"""

from __future__ import annotations

import os

# One thread per process unless a command asks for more: set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
MODULES = ("core", "shift", "dgp", "gcomp", "mle", "gest", "cfsim", "oracle", "io", "cli")


def parse_args(argv):
    p = argparse.ArgumentParser(description="snftm benchmark")
    p.add_argument("--workload", required=True, choices=("study", "cli", "exact"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the monotonic clock, exit (used to time set-up)")
    return p.parse_args(argv)


def timed_setups(workload: str, seed: int, pace) -> list[float]:
    """Set-up time of fresh processes, from spawn to the end of set-up, at
    the reference speed."""
    from pace import clock

    out = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        out.append(pace.rescale(start, float(proc.stdout.split()[-1])))
    return out


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def layer_metrics(workload: str, ctx, probes: dict, pace) -> dict:
    """Module totals per block over the workload's own spans (each step of
    its measured loop and its probe group), then the probes, then the
    tracing overhead."""
    from probes import PROBES
    from spans import median, module_totals, under_roots

    own = under_roots(ctx.tracer.spans, lambda r: r.module == "bench" or (r.module, r.name) == ("probe", workload))
    out = {}
    for mod, row in module_totals(own, MODULES, pace.speed).items():
        out[f"{mod}.self_s"] = (row["self_s"], "s")
        out[f"{mod}.calls"] = (row["calls"], "count")
        out[f"{mod}.failed"] = (row["failed"], "count")
    for name, value in probes.items():
        out[name] = (value, PROBES[name][0])
    traced, untraced = ctx.samples(traced=True), ctx.samples(traced=False)
    both = [s for s in traced if s in untraced]
    ratio = sum(median(traced[s]) for s in both) / sum(median(untraced[s]) for s in both) if both else 1.0
    out["trace.overhead_frac"] = (ratio - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [p for p in ("src/snftm", "configs") if not (ROOT / p).is_dir()]
    if missing:
        print(f"perfbench: not a snftm source tree (missing {', '.join(missing)}) at {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))

    from pace import Pace, clock
    from workloads import WORKLOADS

    setup, _, _, teardown = WORKLOADS[args.workload]
    if args.setup_only:
        state = setup(ROOT, args.seed)
        print(clock())
        if teardown:
            teardown(state)
        return 0

    OUT.mkdir(exist_ok=True)
    pace = Pace()
    try:
        return measure(args, pace)
    finally:
        pace.stop()


def measure(args, pace) -> int:
    from facts import machine_facts
    from spans import Tracer, high_percentile, median
    from workloads import STEPS, WORKLOADS, Context, run_closed_loop

    setup, make_tasks, named, teardown = WORKLOADS[args.workload]
    facts = machine_facts(ROOT, args.seed)
    facts["pinned_cpu"] = pace.cpu
    setups = [] if args.trace else timed_setups(args.workload, args.seed, pace)
    state = setup(ROOT, args.seed)
    ctx = Context(Tracer(f"{args.workload}-{args.seed}-{os.getpid()}", enabled=False), pace)
    try:
        body_wall = run_closed_loop(ctx, make_tasks(state, ROOT), args.seconds, alternate_trace=bool(args.trace))
        probes, probe_side = {}, {}
        if args.trace:
            from probes import run_probes

            probes, probe_side = run_probes(ctx, ROOT, args.seed)
    finally:
        if teardown:
            teardown(state)

    # A step whose every block failed has no sample and no metric; the
    # result still says how many operations were attempted and failed.
    samples = ctx.samples()
    med = {s: median(xs) for s, xs in samples.items()}
    if args.trace:
        metrics = layer_metrics(args.workload, ctx, probes, pace)
    else:
        metrics = {"setup_s": (median(setups), "s"), "peak_rss_mb": (peak_rss_mb(), "MB")}
        metrics.update({f"{s}_s": (med[s], "s") for s in sorted(med)})

    steps = {}
    for i, what in enumerate(STEPS[args.workload], start=1):
        s = f"step{i}"
        raw = [wall for step, _, wall, _, _ in ctx.timeline if step == s]
        high = high_percentile(samples.get(s, ()))
        steps[s] = {"what": what, "n": len(raw), "median_s": med.get(s), "median_wall_s": median(raw) if raw else None,
                    "high_percentile_s": None if high is None else {"p": high[0], "value": high[1]},
                    "samples_s": samples.get(s, []), "samples_wall_s": raw}
    complete = len(med) == len(steps)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "facts": facts, "measured_wall_s": body_wall, "setup_samples_s": setups,
        "steps": steps,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named(med).items()} if complete else {},
        "probe_side": probe_side,
        "attempted": ctx.attempted, "failed": ctx.failed, "errors": ctx.errors,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        ctx.tracer.dump(OUT / f"spans-{tag}.json")

    print(f"# machine {json.dumps(facts)}")
    for s, row in steps.items():
        if not row["n"]:
            print(f"# {s} n=0    no successful sample  {row['what']}")
            continue
        high = row["high_percentile_s"]
        tail = f"p{high['p']:.0f} {high['value']:.4f}" if high else "p-high n/a (<11 samples)"
        print(f"# {s} n={row['n']:<4d} median {row['median_s']:.4f} s ({row['median_wall_s']:.4f} s wall)"
              f"  {tail}  {row['what']}")
    for k, v in record["named"].items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    print(f"# ops = {ctx.attempted}, ops_failed = {ctx.failed}")
    for err in ctx.errors:
        print(f"# failed: {err}")
    print(json.dumps({
        "correct": ctx.failed == 0,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if ctx.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
