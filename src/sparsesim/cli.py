"""Command-line driver: run circuit files, benchmark factoring and dlog."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import shor
from .dense import DENSE_MAX_QUBITS, compare, run_dense_program
from .ir import CircuitSyntaxError, parse_circuit
from .simulator import RunStats, run_program
from .state import SparseState

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_RUNTIME = 2
EXIT_NO_RESULT = 3


def _write_stats(path: str | None, stats: RunStats) -> None:
    if path:
        Path(path).write_text(stats.to_json() + "\n", encoding="utf-8")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=1, help="measurement stream seed")
    p.add_argument("--threads", type=int, default=1, help="worker budget for queue execution")


def cmd_run(args) -> int:
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        program = parse_circuit(text)
    except CircuitSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    result = run_program(
        program,
        seed=args.seed,
        threads=args.threads,
        scheduler_enabled=not args.no_queue,
    )
    if result.measurements:
        print(" ".join(str(b) for b in result.measurements))
    if args.dump_final:
        for label, amp in result.dump:
            print(f"{label} {amp.real!r} {amp.imag!r}")
    if args.show_counters:
        st = result.sim_stats
        print(
            f"flushes={st.flush_count} absorbed={st.gates_absorbed} "
            f"enqueued={st.gates_enqueued} queue_executions={st.queue_executions} "
            f"parallel_executions={st.parallel_executions}"
        )
    if args.oracle_check:
        if program.num_qubits > DENSE_MAX_QUBITS:
            print(f"error: oracle check limited to {DENSE_MAX_QUBITS} qubits", file=sys.stderr)
            return EXIT_RUNTIME
        dense = run_dense_program(program, seed=args.seed)
        sparse = SparseState(program.num_qubits, dict(result.dump))
        dev = compare(dense, sparse)
        match = dense.measurements == result.measurements
        print(f"oracle deviation: {dev:.3e} records_match: {match}")
    _write_stats(args.stats, result.stats)
    return EXIT_OK


def cmd_factor(args) -> int:
    result = shor.factor_with_retries(
        args.N,
        adder=args.adder,
        seed=args.seed,
        trials=args.trials,
        threads=args.threads,
        mbu=args.mbu,
        generator=args.generator,
    )
    _write_stats(args.stats, result.stats)
    if not result.success:
        print("no factors found", file=sys.stderr)
        return EXIT_NO_RESULT
    print(f"{result.factors[0]} x {result.factors[1]}")
    return EXIT_OK


def cmd_dlog(args) -> int:
    result = shor.dlog_with_retries(
        args.prime,
        base=args.base,
        target=args.target,
        exponent=args.exponent,
        seed=args.seed,
        trials=args.trials,
        threads=args.threads,
        mbu=args.mbu,
        adder=args.adder,
    )
    _write_stats(args.stats, result.stats)
    if not result.success:
        print("no exponent recovered", file=sys.stderr)
        return EXIT_NO_RESULT
    print(result.exponent)
    return EXIT_OK


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok]
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.reps < 0:
        print(f"error: --reps must be at least 0, got {args.reps}", file=sys.stderr)
        return EXIT_RUNTIME
    rows = ["instance,rep,wall_time_ms,max_state_size,success"]
    run = shor.run_factoring if args.suite == "factoring" else shor.run_dlog
    for size in sizes:
        if args.suite == "factoring":
            instance = shor.FactoringInstance.build(size, args.adder)
        else:
            instance = shor.DlogInstance.build(size, exponent=7, adder=args.adder)
        for rep in range(args.reps):
            res = run(instance, seed=args.seed + rep, threads=args.threads, mbu=args.mbu)
            rows.append(f"{size},{rep},{res.stats.wall_time_ms},{res.stats.max_state_size},{res.success}")
    Path(args.out).write_text("\n".join(rows) + "\n", encoding="utf-8")
    print(f"wrote {len(rows) - 1} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsesim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a circuit file")
    p_run.add_argument("file", help="circuit text file")
    _add_common(p_run)
    p_run.add_argument("--no-queue", action="store_true", help="disable gate queueing and commutation")
    p_run.add_argument("--dump-final", action="store_true", help="print the final state, sorted by label")
    p_run.add_argument("--show-counters", action="store_true", help="print scheduler instrumentation counters")
    p_run.add_argument("--oracle-check", action="store_true", help=argparse.SUPPRESS)
    p_run.set_defaults(func=cmd_run)

    p_factor = sub.add_parser("factor", help="run the order-finding factoring benchmark")
    p_factor.add_argument("N", type=int, help="odd composite to factor")
    _add_common(p_factor)
    p_factor.add_argument("--adder", choices=("cdkm", "qft"), default="cdkm")
    p_factor.add_argument("--generator", type=int, help="override the pre-selected generator")
    p_factor.add_argument("--trials", type=int, default=5, help="seeded attempts before giving up")
    p_factor.add_argument("--mbu", action="store_true", help="measurement-based comparator uncomputation")
    p_factor.set_defaults(func=cmd_factor)

    p_dlog = sub.add_parser("dlog", help="run the integer discrete-logarithm benchmark")
    p_dlog.add_argument("--prime", type=int, required=True)
    _add_common(p_dlog)
    p_dlog.add_argument("--base", type=int, help="group generator (defaults to the smallest primitive root)")
    p_dlog.add_argument("--target", type=int, help="element whose logarithm is sought")
    p_dlog.add_argument("--exponent", type=int, help="build the target as base^exponent")
    p_dlog.add_argument("--adder", choices=("cdkm", "qft"), default="cdkm")
    p_dlog.add_argument("--trials", type=int, default=5)
    p_dlog.add_argument("--mbu", action="store_true")
    p_dlog.set_defaults(func=cmd_dlog)
    for p in (p_run, p_factor, p_dlog):  # bench writes its CSV only
        p.add_argument("--stats", metavar="FILE", help="write a stats JSON report")

    p_bench = sub.add_parser("bench", help="emit plot-ready benchmark data")
    p_bench.add_argument("--suite", choices=("factoring", "dlog"), required=True)
    p_bench.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    p_bench.add_argument("--reps", type=int, required=True)
    p_bench.add_argument("--out", required=True, help="CSV output path")
    _add_common(p_bench)
    p_bench.add_argument("--adder", choices=("cdkm", "qft"), default="cdkm")
    p_bench.add_argument("--mbu", action="store_true")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # A rejected argument or instance, an unwritable --stats/--out file, or a vanishing measured branch.
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
