"""Command-line interface.

Exit codes: 0 accept / clean, 1 reject, 2 step budget exhausted, 3 error.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .codegen import compile_tm, emit_hodl
from .core import (BudgetExhaustedError, HodlError, compute_stats, expk,
                   iteration_bound)
from .encode import ALPHABET, encode_input, merge
from .engines import EngineConfig, _run_engine, decide
from .semantics import MAX_PRODUCT, dump_model, least_model_naive
from .syntax import parse_program
from .tm import parse_tm, tm_run
from .typecheck import analyze, infer_types

EXIT_ACCEPT = 0
EXIT_REJECT = 1
EXIT_BUDGET = 2
EXIT_ERROR = 3


@dataclass
class CrosscheckReport:
    machine: str
    k: int
    d: int
    # (input, oracle, engine, agree, steps, steps unit)
    rows: list = field(default_factory=list)

    @property
    def agreements(self):
        return sum(1 for r in self.rows if r[3])

    def render(self):
        units = "/".join(sorted({r[5] for r in self.rows}))
        header = ("input", "oracle", "engine", "agree", "steps (%s)" % units)
        body = [(repr(r[0]), r[1], r[2], "yes" if r[3] else "NO", str(r[4]))
                for r in self.rows]
        widths = [max(len(header[i]), max((len(b[i]) for b in body), default=0))
                  for i in range(5)]
        lines = ["machine %s  k=%d d=%d" % (self.machine, self.k, self.d)]
        for row in [header] + body:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        lines.append("%d/%d agree" % (self.agreements, len(self.rows)))
        return "\n".join(lines)

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["input", "oracle", "engine", "agree", "steps",
                        "steps_unit"])
            for r in self.rows:
                w.writerow([r[0], r[1], r[2], str(r[3]).lower(), r[4], r[5]])


def _load_program(path):
    with open(path) as f:
        return parse_program(f.read())


def _load_machine(path):
    with open(path) as f:
        name = path.rsplit("/", 1)[-1].rsplit(".", 1)[0]
        return parse_tm(f.read(), name=name)


def _merged(path, w):
    prog, report = analyze(_load_program(path))
    if not report.ok:
        raise HodlError("; ".join(d.render(path) for d in report.violations))
    if w is None:
        return prog
    return merge(prog, encode_input(w))


def cmd_check(args):
    src = _load_program(args.file)
    report = infer_types(src)
    for d in report.violations:
        print(d.render(args.file))
    if report.ok:
        print("order: %d" % report.program_order)
        return EXIT_ACCEPT
    return EXIT_ERROR


def cmd_run(args):
    prog = _merged(args.file, None)
    cfg = EngineConfig(engine=args.engine, step_budget=args.budget,
                       domain_cap=args.cap, trace=args.trace)
    verdict = decide(prog, args.input, cfg)
    print(verdict)
    return EXIT_ACCEPT if verdict == "accept" else EXIT_REJECT


def cmd_model(args):
    prog = _merged(args.file, args.input)
    res = least_model_naive(prog, cap=args.cap, budget=args.budget)
    sys.stdout.write(dump_model(prog, res.interpretation))
    return EXIT_ACCEPT


def cmd_compile_tm(args):
    machine = _load_machine(args.file)
    text = emit_hodl(machine, args.order, args.d)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)
    return EXIT_ACCEPT


def cmd_tm_run(args):
    machine = _load_machine(args.file)
    res = tm_run(machine, args.input, args.budget)
    print("%s after %d steps (state %s)"
          % (res.verdict, res.steps_used, res.final_state))
    return {"accepted": EXIT_ACCEPT, "rejected": EXIT_REJECT,
            "out_of_steps": EXIT_BUDGET}.get(res.verdict, EXIT_ERROR)


def _sim_bound(k, d, n):
    """Simulated steps for inputs of length n: n^d - 1 at first order,
    expk(k-1, n^d) - 1 above."""
    if n < 2:
        return 10 ** 6  # short strings are handled by direct rules
    if k == 1:
        return n ** d - 1
    return expk(k - 1, n ** d) - 1


def _all_strings(max_len):
    out = [""]
    for n in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(ALPHABET, repeat=n))
    return out


def crosscheck_row(prog, machine, w, k, d, budget):
    """One report row.  At k=1 the row also fails, with a line on stderr,
    if seminaive takes more rounds than the paper's bound p*(n+c)^t."""
    oracle = tm_run(machine, w, _sim_bound(k, d, len(w)))
    cfg = EngineConfig(engine="seminaive" if k == 1 else "demand",
                       step_budget=budget)
    accept, steps, unit = _run_engine(prog, w, cfg)
    verdict = "accept" if accept else "reject"
    oracle_verdict = "accept" if oracle.accepted else "reject"
    agree = verdict == oracle_verdict
    if k == 1:
        merged = merge(prog, encode_input(w))
        bound = iteration_bound(compute_stats(merged), len(w), 1)
        if steps > bound:
            print("error: %r took %d rounds, over the bound p*(n+c)^t = %d"
                  % (w, steps, bound), file=sys.stderr)
            agree = False
    return (w, oracle_verdict, verdict, agree, steps, unit)


_job = None  # (prog, machine, k, d, budget) of a worker's crosscheck


def _start_worker(*job):
    """Receive the crosscheck once per worker process, so that each worker
    prepares the program once."""
    global _job
    _job = job


def _row_worker(w):
    prog, machine, k, d, budget = _job
    return crosscheck_row(prog, machine, w, k, d, budget)


def cmd_crosscheck(args):
    machine = _load_machine(args.file)
    k, d = args.order, args.d
    prog = compile_tm(machine, k, d)
    words = _all_strings(args.max_len)
    # fail fast on machine/d pairs the simulation budget cannot cover
    for w in words:
        res = tm_run(machine, w, _sim_bound(k, d, len(w)))
        if res.verdict == "out_of_steps":
            print("error: machine does not halt on %r within the simulated "
                  "step budget; increase d" % w, file=sys.stderr)
            return EXIT_ERROR
        if res.verdict == "left_edge_violation":
            print("error: machine moves left of cell 0 on %r" % w,
                  file=sys.stderr)
            return EXIT_ERROR
    report = CrosscheckReport(machine.name, k, d)
    job = (prog, machine, k, d, args.budget)
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs,
                                 initializer=_start_worker,
                                 initargs=job) as pool:
            results = list(pool.map(_row_worker, words))
    else:
        results = [crosscheck_row(prog, machine, w, k, d, args.budget)
                   for w in words]
    report.rows.extend(results)
    print(report.render())
    if args.csv:
        report.write_csv(args.csv)
    return EXIT_ACCEPT if report.agreements == len(report.rows) else EXIT_ERROR


def build_parser():
    p = argparse.ArgumentParser(prog="hodatalog",
                                description="Higher-order Datalog toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common_eval(sp):
        sp.add_argument("--input", default=None,
                        help="input string over {a,b}; omit for none")
        sp.add_argument("--budget", type=int, default=10 ** 7)
        sp.add_argument("--cap", type=int, default=1 << 16,
                        help="naive engine: most elements of a predicate"
                        " domain, and most argument tuples it ranges over,"
                        " which is at most %d whatever the cap (E301 past"
                        " either)" % MAX_PRODUCT)

    sp = sub.add_parser("check", help="parse, type and validate a program")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("run", help="decide an input with a program")
    sp.add_argument("file")
    common_eval(sp)
    sp.add_argument("--engine", choices=("naive", "seminaive", "demand"),
                    default="demand")
    sp.add_argument("--trace", action="store_true")
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("model", help="dump the least model (naive engine)")
    sp.add_argument("file")
    common_eval(sp)
    sp.set_defaults(fn=cmd_model)

    sp = sub.add_parser("compile-tm", help="compile a machine to a program")
    sp.add_argument("file")
    sp.add_argument("--order", type=int, default=1)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--out")
    sp.set_defaults(fn=cmd_compile_tm)

    sp = sub.add_parser("tm-run", help="run a machine directly")
    sp.add_argument("file")
    sp.add_argument("--input", default="")
    sp.add_argument("--budget", type=int, default=10 ** 6)
    sp.set_defaults(fn=cmd_tm_run)

    sp = sub.add_parser("crosscheck",
                        help="compare compiled program against the machine")
    sp.add_argument("file")
    sp.add_argument("--order", type=int, default=1)
    sp.add_argument("--d", type=int, default=1)
    sp.add_argument("--max-len", type=int, default=3)
    sp.add_argument("--budget", type=int, default=10 ** 7)
    sp.add_argument("--csv")
    sp.add_argument("--jobs", type=int, default=1)
    sp.set_defaults(fn=cmd_crosscheck)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BudgetExhaustedError as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_BUDGET
    except (HodlError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:  # a crash must not read as a verdict
        print("error: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
