#!/usr/bin/env python3
"""Time-to-verdict benchmark for elastica.

Run from the root of a checkout:

    python3 perfbench/run.py --workload box_sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another, each in its
own process, and sums their results.

Workloads (defined in perfbench/workloads.py):

* ``box_sweep``: five-α Richardson verify on (0,π)², 32²/64² cells;
* ``box_fine``: one α = 2 Richardson verify, 64²/128² cells;
* ``cap_hemisphere``: ``run_cap`` on the hemisphere, 256/512 radial cells.

The seed becomes ``solver.seed`` (the LOBPCG starting block) on the box
workloads; the cap workload has no random input and ignores it.

``--trace 0`` repeats whole passes for about ``--seconds`` (at least one)
and reports ``setup_s`` (median of several process starts up to the first
workload call), ``wall_s`` (median pass time) and ``peak_rss_mb``.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics, the ROADMAP baseline tables and the tracing overhead.
Every case is gated for correctness; the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Results,
the environment record and (traced) spans go to perfbench/out/.

Exit status: 0 when every case passes the gate, 1 when any fails, 2 when
the checkout has no elastica sources or the arguments are bad.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# single-threaded baseline: BLAS sizes its pool when numpy loads, and the
# sweep runs its cases in this one process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ELASTICA_THREADS", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("box_sweep", "box_fine", "cap_hemisphere")
SETUP_PROBES = 7
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load_inputs(name, seed):
    """All set-up before the first workload call: imports, inputs, checks."""
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[name]
    return workload, workload.configs(seed, OUT)


def measure_setup(args):
    """Median time from process start to the first workload call."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({proc.returncode})")
        samples.append(ready - start)
    return statistics.median(samples)


def report_problems(passes):
    for p in passes:
        for o in p.outcomes:
            for problem in o.problems:
                print(f"GATE FAIL {o.config.output_path}: {problem}")


def write_result(name, payload):
    with open(os.path.join(OUT, name), "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=1, default=str)
        fh.write("\n")


def print_environment(env, sizes):
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    if sizes:
        for mesh, entry in sizes["meshes"].items():
            print(f"working set {mesh} (computed): " + ", ".join(
                f"{k}={v}" for k, v in entry.items()))


def timed_run(args, workload, configs, setup_s):
    from envinfo import environment, working_set
    from workloads import run_pass

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload, configs))
        if time.perf_counter() - start + passes[-1].wall_s > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = [p.wall_s for p in passes]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {"setup_s": setup_s, "wall_s": statistics.median(walls),
               "peak_rss_mb": peak_rss_mb}

    report_problems(passes)
    env, sizes = environment(ROOT), working_set(workload)
    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}"
          f"  cases per pass {len(configs)}")
    print(f"setup_s           {setup_s:.4f} s  (median of {SETUP_PROBES} "
          "process starts)")
    print(f"wall_s            {metrics['wall_s']:.4f} s  (median of "
          f"{len(walls)} passes: {', '.join(f'{w:.3f}' for w in walls)})")
    print(f"peak_rss_mb       {peak_rss_mb:.1f} MB")
    print(f"cases_failed      {failed} of {attempted} cases")
    print(f"marginal_records  {passes[-1].marginal} count")
    print_environment(env, sizes)
    result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
              for name, value in metrics.items()}
    write_result(f"result-{workload.name}-seed{args.seed}-trace0.json", {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "metrics": result, "pass_walls_s": walls,
        "cases_failed": failed, "cases_attempted": attempted,
        "marginal_records": passes[-1].marginal,
        "environment": env, "working_set": sizes})
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": result}


def traced_run(args, workload, configs):
    from envinfo import environment, working_set
    from layers import LAYER_UNITS, box_table, cap_table, layer_metrics
    from tracer import Tracer, instrument
    from workloads import run_pass

    untraced = run_pass(workload, configs)
    tracer = Tracer()
    with instrument(tracer):
        traced = run_pass(workload, configs)
    for plain, seen in zip(untraced.outcomes, traced.outcomes):
        if plain.report is not None and seen.report is not None \
                and plain.report.to_json() != seen.report.to_json():
            seen.problems.append("traced report differs from untraced")
    passes = [untraced, traced]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = layer_metrics(tracer, workload, traced, untraced.wall_s)

    report_problems(passes)
    env, sizes = environment(ROOT), working_set(workload)
    print(f"workload {workload.name}  seed {args.seed}  traced pass "
          f"{traced.wall_s:.3f} s, untraced pass {untraced.wall_s:.3f} s")
    print(f"cases_failed      {failed} of {attempted} cases")
    table = (box_table if workload.kind == "box" else cap_table)(tracer)
    print("\n".join(table))
    for name, unit in LAYER_UNITS.items():
        print(f"{name:44s} {metrics[name]:.6g} {unit}")
    print_environment(env, sizes)
    tracer.write(os.path.join(
        OUT, f"spans-{workload.name}-seed{args.seed}.jsonl"))
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in LAYER_UNITS.items()}
    write_result(f"result-{workload.name}-seed{args.seed}-trace1.json", {
        "workload": workload.name, "seed": args.seed, "metrics": result,
        "table": table,
        "cases_failed": failed, "cases_attempted": attempted,
        "environment": env, "working_set": sizes})
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": result}


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return None
        summary = json.loads(lines[-1])
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"].update({f"{name}.{key}": value for key, value
                                    in summary["metrics"].items()})
    return combined


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "elastica", "__init__.py")):
        print(f"perfbench: no elastica sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        load_inputs(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        summary = run_all(args)
        if summary is None:
            return 2
    elif args.trace:
        summary = traced_run(args, *load_inputs(args.workload, args.seed))
    else:
        setup_s = measure_setup(args)
        summary = timed_run(args, *load_inputs(args.workload, args.seed),
                            setup_s)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
