"""Thread scaling of ``permqueue.execute``, for information only (not gated).

    python3 perfbench/thread_scaling.py

Times one 200-record queue of random controlled flips, phases, Z-parity
phases and swaps on maps of 5k, 50k and 400k entries (40-qubit labels),
with thread budgets 1 and 2, and prints the median time of ``REPS`` passes
of each and the speed-up of 2 threads over 1.  All sizes are above the
4096-entry split threshold, so a budget of 2 splits the pass.  Results also go to
``.bench_out/thread_scaling.json``.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

import run

SIZES = (5_000, 50_000, 400_000)
RECORDS = 200
QUBITS = 40
SEED = 1
REPS = 5


def make_records(rng: random.Random, permqueue) -> list:
    recs = []
    for _ in range(RECORDS):
        a, b, c = rng.sample(range(QUBITS), 3)
        kind = rng.randrange(4)
        if kind == 0:
            recs.append(permqueue.flip_record(1 << a, 1 << b))
        elif kind == 1:
            recs.append(permqueue.phase_record(1j, (1 << a) | (1 << b)))
        elif kind == 2:
            recs.append(permqueue.zparity_record((1 << a) | (1 << b), 1j, -1j, 1 << c))
        else:
            recs.append(permqueue.bitswap_record(a, b, 1 << c))
    return recs


def main() -> int:
    run.prepare()
    from sparsesim import permqueue
    from sparsesim.state import SparseState

    rng = random.Random(SEED)
    records = make_records(rng, permqueue)
    rows = []
    for size in SIZES:
        labels = rng.sample(range(1 << QUBITS), size)
        st = SparseState(QUBITS, {b: complex(1.0) for b in labels})
        times = {}
        for threads in (1, 2):
            samples = []
            for _ in range(REPS):
                queue = permqueue.PhasePermQueue()
                queue.records = list(records)
                t0 = time.perf_counter()
                permqueue.execute(queue, st, thread_budget=threads)
                samples.append(time.perf_counter() - t0)
            times[threads] = statistics.median(samples)
        row = {"entries": size, "t1_s": times[1], "t2_s": times[2], "speedup": times[1] / times[2]}
        rows.append(row)
        print(f"{size:>8} entries  1 thread {times[1]:.4f} s  2 threads {times[2]:.4f} s  speed-up {row['speedup']:.2f}x")
    run.OUT.mkdir(exist_ok=True)
    record = {"records": RECORDS, "qubits": QUBITS, "reps": REPS, "seed": SEED, "rows": rows}
    (run.OUT / "thread_scaling.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
