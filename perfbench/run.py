"""Benchmark of sparsesim: five workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py                          # all workloads, end-to-end metrics
    python3 perfbench/run.py --trace 1                # all workloads, per-layer metrics
    python3 perfbench/run.py --workload factor35_qft --seed 3 --seconds 20 --trace 0

One workload runs in one process (``--workload all`` starts one process per
workload, one after the other, so that no run inherits another's heap).
The program gets at most two worker threads (``circuit_wide`` runs with a
thread budget of 2; the drivers use 1).  Inputs come from ``--seed`` only:
the measurement seeds of the drivers, and the text of the generated circuit.

The workload is repeated ("reps") for about ``--seconds``, at least once;
every rep uses the same inputs, so its outputs must repeat exactly.
End-to-end metrics (``--trace 0``):

* ``wall_s``: simulate time of one attempt of each instance, summed over the
  workload's instances; mean over reps (the median is printed beside it).  A
  retried instance counts its mean time per attempt.  The simulate time of a
  whole rep, every attempt included, is printed beside it but not reported:
  the discrete logs of shor_small take 1 to 5 attempts depending on the seed,
  which spreads that figure over seeds far beyond any usable bound.  That
  answers do not come later than the readouts allow is checked instead (see
  ``workloads.DriverInstance.readout_has_answer``).
* ``gates_per_s``: gates over all attempts of all reps divided by their
  simulate time.
* ``peak_entries``: largest stored map (``max_state_size``) over all attempts.
* ``peak_rss_mb``: growth of the process's resident-memory high-water mark
  during the reps, over a reading taken after the inputs are built, just
  before the first rep; so the interpreter and numpy are not counted.
* ``setup_s``: median over fresh interpreters of ``import sparsesim`` plus
  building the instances (the import alone for ``circuit_wide``).  The
  set-ups are spread between the reps, at least ``SETUP_SAMPLES`` of them,
  so that they see the same phases of the machine's speed as the reps.

The times are means, not medians: on the 2-vCPU virtual machine where the
baseline was measured, the same code runs up to 1.8x slower for tens of
seconds to minutes at a time, so a run's median jumps between speeds while
its mean follows the share of time spent at each.

``--trace 1`` alternates untraced and traced reps (see ``tracer.py``), so
that both see the same phases of the machine's speed, and reports the
per-layer metrics per traced rep.  ``trace.wall_s`` and
``trace.untraced_wall_s`` are the mean simulate seconds of a rep, retries
included; ``trace.overhead_s`` is their difference, ``trace.self_sum_share``
the share of the traced time that the layers' self times account for, and
``process.cpu_s`` the CPU seconds of an untraced rep.  Failed attempts over
attempted ones is the fail share; the last output line is the JSON result,
and per-run details go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
RUN_SECONDS = 20  # run_seconds in BENCHMARK.json
# numpy's own thread pools stay at one thread: the thread budget is the program's.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBE = """\
import time
t0 = time.perf_counter()
import sparsesim
{build}print(repr(time.perf_counter() - t0))
"""


def prepare() -> None:
    """Make ``src/`` importable with single-threaded numpy; exit 2 if it is missing."""
    if not (SRC / "sparsesim" / "__init__.py").is_file():
        print(f"error: {SRC / 'sparsesim'} not found; run from a sparsesim checkout", file=sys.stderr)
        sys.exit(2)
    os.environ.update(THREAD_ENV)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def setup_probe(workload):
    """A function that times import plus instance builds in a fresh interpreter.

    One run is made here, to warm the bytecode and file caches, and not kept.
    """
    from workloads import DriverInstance

    build = ""
    drivers = [i for i in workload.instances if isinstance(i, DriverInstance)]
    if drivers:
        build = "from sparsesim import shor\n" + "".join(f"{i.build_source()}\n" for i in drivers)
    code = SETUP_PROBE.format(build=build)
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)

    def sample() -> float:
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        return float(done.stdout.strip().splitlines()[-1])

    sample()
    return sample


def _rep_figures(runs, cpu: float) -> dict:
    seconds = sum(r.seconds for r in runs)
    attempts = [a for r in runs for a in r.attempts]
    return {
        "wall": sum(r.seconds / len(r.attempts) for r in runs),
        "seconds": seconds,
        "cpu": cpu,
        "gates": sum(a.gates for a in attempts),
        "peak": max(a.peak for a in attempts),
        "attempts": len(attempts),
        "errors": [a.error for a in attempts if a.error],
        "instances": [
            {
                "label": r.label,
                "attempts": len(r.attempts),
                "answered": r.attempts[-1].success,
                "peak": max(a.peak for a in r.attempts),
                "gates": sum(a.gates for a in r.attempts),
                "seconds": r.seconds,
            }
            for r in runs
        ],
        "stats": [a.sim_stats for a in attempts if a.sim_stats is not None],
    }


def _rep(runner) -> dict:
    gc.collect()
    cpu0 = time.process_time()
    runs = runner.rep()
    return _rep_figures(runs, time.process_time() - cpu0)


def _reps(runner, seconds: float, tracer=None, between=None) -> tuple[list[dict], list[dict]]:
    """Untraced reps, each followed by a traced one when a tracer is given.

    ``between``, if given, is called after each step.  Steps go on until the
    next one would end further past ``seconds`` than it starts.  Returns the
    untraced and the traced reps.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        plain.append(_rep(runner))
        if tracer is not None:
            with tracer.installed():
                traced.append(_rep(runner))
        if between is not None:
            between()
        now = time.perf_counter()
        if now + (now - t0) / 2 >= deadline:
            return plain, traced


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result object plus details."""
    import tracer as tracing
    from workloads import WorkloadRunner

    runner = WorkloadRunner(workload, seed)
    tr = tracing.Tracer() if trace else None
    setup, between = [], None
    if not trace:
        probe = setup_probe(workload)
        due = time.perf_counter()

        def between():
            nonlocal due
            if time.perf_counter() >= due:
                setup.append(probe())
                due = time.perf_counter() + seconds / SETUP_SAMPLES

    gc.collect()
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    plain, traced = _reps(runner, seconds, tr, between)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0
    if not trace:
        setup += [probe() for _ in range(SETUP_SAMPLES - len(setup))]
        metrics = {
            "wall_s": _metric(statistics.fmean(r["wall"] for r in plain), "s"),
            "gates_per_s": _metric(sum(r["gates"] for r in plain) / sum(r["seconds"] for r in plain), "1/s"),
            "peak_entries": _metric(max(r["peak"] for r in plain), "count"),
            "peak_rss_mb": _metric(rss_kib / 1024.0, "MB"),
            "setup_s": _metric(statistics.median(setup), "s"),
        }
    else:
        metrics = _layer_metrics(tr, plain, traced)
    all_reps = plain + traced
    errors = [e for r in all_reps for e in r["errors"]]
    attempted = sum(r["attempts"] for r in all_reps)
    return {
        "result": {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics},
        "reps": len(all_reps),
        "rep_walls": [r["wall"] for r in plain],
        "rep_seconds": [r["seconds"] for r in plain],
        "rep_rates": [r["gates"] / r["seconds"] for r in plain],
        "traced_reps": len(traced),
        "instances": all_reps[0]["instances"],
        "errors": errors,
        "setup_samples": setup,
        "spans": tr.last_rep_spans() if trace else None,
    }


def _layer_metrics(tr, plain: list[dict], traced: list[dict]) -> dict:
    import tracer as tracing

    n = len(traced)
    traced_s = sum(r["seconds"] for r in traced)
    self_ns = tr.self_times_ns()
    stats = [s for r in traced for s in r["stats"]]
    gates = sum(s.gate_count for s in stats)
    values = {
        "ir.validate_calls": tr.counts["ir.validate_calls"] / n,
        "scheduler.flush_calls": tr.span_calls("scheduler.flush_qubits") / n,
        "scheduler.absorbed_ratio": sum(s.gates_absorbed for s in stats) / gates if gates else 0.0,
        **tr.queue_metrics(n),
        "state.pairwise_calls": tr.span_calls("state.apply_block") / n,
        "state.pairwise_entries_out": tr.counts["state.pairwise_entries_out"] / n,
        "state.measure_calls": tr.span_calls("state.measure") / n,
        "state.measure_entries": tr.counts["state.measure_entries"] / n,
        "arithmetic.gen_calls": tr.counts["arithmetic.gen_calls"] / n,
        "process.cpu_s": statistics.fmean(r["cpu"] for r in plain),
        "trace.wall_s": statistics.fmean(r["seconds"] for r in traced),
        "trace.untraced_wall_s": statistics.fmean(r["seconds"] for r in plain),
        "trace.self_sum_share": sum(self_ns.values()) / 1e9 / traced_s,
    }
    values["trace.overhead_s"] = values["trace.wall_s"] - values["trace.untraced_wall_s"]
    for layer, ns in self_ns.items():
        values[layer] = ns / 1e9 / n
    return {name: _metric(values[name], unit) for name, unit in tracing.PER_LAYER_METRICS}


def _print_report(name: str, seed: int, trace: bool, out: dict) -> None:
    res = out["result"]
    print(f"workload={name} seed={seed} trace={int(trace)} reps={out['reps']} src_lines={src_lines()}")
    for inst in out["instances"]:
        print(
            f"  {inst['label']}: attempts={inst['attempts']} answered={inst['answered']} "
            f"peak_entries={inst['peak']} gates={inst['gates']}"
        )
    untraced = out["reps"] - out["traced_reps"]
    for key, m in res["metrics"].items():
        note = ""
        if key == "wall_s":
            note = (
                f"  mean of {untraced} reps, median {statistics.median(out['rep_walls']):.6g} s;"
                f" all attempts: median {statistics.median(out['rep_seconds']):.6g} s"
            )
        elif key == "gates_per_s":
            note = f"  over {untraced} reps, median {statistics.median(out['rep_rates']):.6g} 1/s"
        elif key == "setup_s":
            note = f"  median of {len(out['setup_samples'])} set-ups"
        elif key == "trace.overhead_s":
            note = f"  {out['traced_reps']} traced reps against {untraced} untraced, alternating"
        print(f"  {key:<40} {m['value']:>16.6g} {m['unit']}{note}")
    share = res["failed"] / res["attempted"]
    print(f"  {'fail_share':<40} {share:>16.6g} ratio  ({res['failed']} of {res['attempted']} attempts)")
    for err in out["errors"]:
        print(f"  FAILED: {err}", file=sys.stderr)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    from workloads import WORKLOADS

    out = run_workload(WORKLOADS[name], seed, seconds, trace)
    _print_report(name, seed, trace, out)
    OUT.mkdir(exist_ok=True)
    spans = out.pop("spans")
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    details = {"workload": name, "seed": seed, "seconds": seconds, "src_lines": src_lines(), **out}
    (OUT / f"{tag}.json").write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if spans is not None:
        (OUT / f"{name}.spans.json").write_text(json.dumps(spans, separators=(",", ":")) + "\n", encoding="utf-8")
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(int(trace))]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        sys.stderr.write(done.stderr)
        try:
            res = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {done.returncode})", file=sys.stderr)
            return 2
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    OUT.mkdir(exist_ok=True)
    summary = {"seed": seed, "seconds": seconds, "trace": int(trace), "src_lines": src_lines(), **combined}
    (OUT / f"all-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all (default)")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS, help="measuring time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    args = parser.parse_args(argv)
    prepare()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from all, {', '.join(WORKLOADS)}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
