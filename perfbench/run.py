"""hodatalog benchmark: times the calls into each module from outside the
program and checks every verdict against an independent oracle.

    python3 perfbench/run.py --workload fo-capture --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py):
  fo-capture  parity and last_a compiled at k=1, d=2 and d=3, decided by
              the seminaive engine; oracle tm_run.
  ho-capture  the same machines at k=2 and k=3 (d=1), decided by the
              demand engine; oracle tm_run.
  chain       reachability on seeded 100-node chains, each query decided
              by both engines; oracle a BFS over the edges.

Each run sets up (compiles every program the workload uses) several times
and reports the median, then repeats the workload's fixed decision set in
batches, one decision at a time, until the next batch would end after
--seconds.  With --trace 0 the last line of stdout is a JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 the run spends
half its time untraced and half traced, prints both kinds of metric, and
the last line holds the per-layer ones.  Everything, the spans of a traced
run and every failed input included, is also written to .perfbench_out/
under the directory the run starts in.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter

from benchlib import (LAYERS, Tracer, host_info, layer_self_times,
                      tail_percentile)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 9
# Bounds the batches, and the spans kept, when decisions fail at once.
MAX_BATCHES = 200
SETUP_LAYERS = ("codegen", "syntax", "typecheck")


def traced(run):
    tracer = Tracer()
    batch = run(tracer)
    batch.spans = tracer.spans
    return batch


def measure(wl, seconds, trace=False):
    """Batches until the next one would end after `seconds`; at least one."""
    batches = []
    start = perf_counter()
    while True:
        b = traced(wl.batch) if trace else wl.batch()
        batches.append(b)
        if (perf_counter() - start + b.wall > seconds
                or len(batches) >= MAX_BATCHES):
            return batches


def end_to_end(batches, setup_times):
    times = [t for b in batches for t in b.times]
    tail = tail_percentile(times)
    if tail is None:  # too few decisions for any rung: use the maximum
        tail = (100.0, max(times), len(times))
    failed = sum(len(b.failures) for b in batches)
    metrics = {
        "wall_s": median([b.wall for b in batches]),
        "decide_p50_s": median(times),
        "decide_tail_s": tail[1],
        "setup_s": median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"batches": len(batches), "batch_walls": [b.wall for b in batches],
            "decisions": len(times), "failed": failed,
            "failed_frac": failed / len(times),
            "tail_percentile": tail[0], "tail_samples": tail[2]}
    return metrics, info


def _ratio(a, b):
    if a is None or b is None:
        return None
    return a / b if b else 0.0


def per_layer(setups, untraced, traced_batches):
    setup_selfs = [layer_self_times(b.spans) for b in setups]
    batch_selfs = [layer_self_times(b.spans) for b in traced_batches]
    m = {}
    for layer in LAYERS:
        selfs = setup_selfs if layer in SETUP_LAYERS else batch_selfs
        m[layer + ".s"] = median([s[layer] for s in selfs])
    # every set-up and every batch does the same work, so the last one's
    # counters stand for all; a counter never touched is a layer that did
    # no work and reads 0
    m.update(setups[-1].counters)
    m.update(traced_batches[-1].counters)
    m["engines.seminaive.tuples_per_s"] = _ratio(
        m.get("engines.seminaive.tuples", 0), m["engines.seminaive.s"])
    m["engines.demand.steps_per_goal"] = _ratio(
        m.get("engines.demand.steps", 0), m.get("engines.demand.goals", 0))
    m["trace.overhead_s"] = (median([b.wall for b in traced_batches])
                             - median([b.wall for b in untraced]))
    m["trace.unattributed_s"] = median([s[None] + b.wall - sum(s.values())
                                        for s, b in zip(batch_selfs,
                                                        traced_batches)])
    return m


def labelled(values, spec):
    """Metrics in the order and with the units BENCHMARK.json gives them."""
    return {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hodatalog" / "__init__.py").is_file():
        print("error: hodatalog sources not found at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (one of %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = workloads.make(args.workload, args.seed)

    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        wl.setup()
        setup_times.append(perf_counter() - t0)
    if args.trace:
        setups = [traced(wl.setup) for _ in range(SETUP_REPS)]
        untraced = measure(wl, args.seconds / 2)
        traced_batches = measure(wl, args.seconds / 2, trace=True)
        batches = untraced + traced_batches
    else:
        untraced = batches = measure(wl, args.seconds)

    e2e, info = end_to_end(untraced, setup_times)
    failures = [f for b in batches for f in b.failures]
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_info(), "mix": wl.mix(),
              "end_to_end": labelled(e2e, spec["end_to_end"]),
              "info": info, "failures": failures}
    if args.trace:
        layers = per_layer(setups, untraced, traced_batches)
        result["per_layer"] = labelled(layers, spec["per_layer"])
        result["spans"] = {"setup": [b.spans for b in setups],
                           "batches": [b.spans for b in traced_batches]}

    out_dir = Path.cwd() / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / ("%s-seed%d-trace%d.json"
                     % (args.workload, args.seed, args.trace))
    out.write_text(json.dumps(result, indent=1))

    host = result["host"]
    print("workload %s  seed %d  python %s  cpu %s  nproc %s"
          % (args.workload, args.seed, host["python"], host["cpu_model"],
             host["nproc"]))
    for key, row in result["mix"].items():
        print("  mix %-28s decisions %3d  accept share %.2f"
              % (key, row["decisions"], row["accept_share"]))
    for name, m in result["end_to_end"].items():
        print("  %-34s %14.6f %s" % (name, m["value"], m["unit"]))
    print("  %-34s %14.6f (%d of %d decisions)"
          % ("failed_frac", info["failed_frac"], info["failed"],
             info["decisions"]))
    print("  decide_tail_s is p%g of %d decisions in %d batches"
          % (info["tail_percentile"], info["tail_samples"], info["batches"]))
    for name, m in result.get("per_layer", {}).items():
        value = "null" if m["value"] is None else "%.6f" % m["value"]
        print("  %-34s %14s %s" % (name, value, m["unit"]))
    if args.trace:
        covered = sum(layers[layer + ".s"] for layer in LAYERS
                      if layer not in SETUP_LAYERS)
        traced_wall = e2e["wall_s"] + layers["trace.overhead_s"]
        print("  accounting: layer self times %.4f s cover %.1f%% of the traced"
              " wall %.4f s = untraced wall_s %.4f s + trace.overhead_s %.4f s"
              % (covered, 100.0 * covered / traced_wall, traced_wall,
                 e2e["wall_s"], layers["trace.overhead_s"]))
    # every batch decides the same inputs: print each failed input once
    for f, times in Counter(json.dumps(f, sort_keys=True)
                            for f in failures).items():
        print("  FAILED in %d batches: %s" % (times, f))
    print("  full result: %s" % os.path.relpath(out))

    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    print(json.dumps({"correct": not failures,
                      "attempted": sum(len(b.times) for b in batches),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
