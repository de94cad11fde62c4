"""Layer tracing for the sparsesim benchmark, installed at run time from outside ``src/``.

The tracer replaces names where the program looks them up (module globals and
class attributes) with wrappers, and puts the originals back afterwards.
Block-sized calls get a span (name, start, end, parent index): the driver
call, arithmetic generators, ``Simulator.apply_all`` / ``run_program``,
``flush_qubits``, ``permqueue.execute``, ``SparseState.apply_block`` /
``measure`` and ``parse_circuit``.  Per-gate calls are not timed, since a
timer per gate costs more than the work it times; ``validate_op`` calls are
counted.  So the frontend's self time covers the whole per-gate path
(``Simulator.apply``, ``validate_op``, ``dispatch`` and slot bookkeeping).

Arithmetic builders return generators that ``apply_all`` consumes lazily.
The wrapper drains each generator into a list inside its own span, so that
generator time is separated from the frontend.  The builders do not read the
simulator, so draining them early does not change the gates.

A span's self time is its duration minus that of its direct children.  Every
span nests in a driver call or in ``parse_circuit`` / ``run_program``, so the
self times add up to the traced simulate time.

Which end-to-end metric each layer metric should move, and where:

* ``ir.validate_calls``: ``gates_per_s`` on shor_small.  ``ir.parse_s``:
  ``wall_s`` on circuit_wide only.
* ``scheduler.*``: ``wall_s`` and ``gates_per_s`` on shor_small most, on
  factor3599_mbu about half as much, on circuit_wide not at all.
* ``permqueue.*``, by input class: ``.wide`` on factor5183_mbu, ``.large`` on
  factor3599_mbu, ``.small`` on shor_small, ``.split`` on circuit_wide only.
* ``state.pairwise_*``: cost per call moves factor35_qft, cost per entry
  moves circuit_wide; trading one for the other shows on both.
* ``state.measure_*``: factor3599_mbu, factor5183_mbu and circuit_wide.
* ``simulator.self_s``, ``arithmetic.gen_s``, ``shor.self_s``: the rest.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from sparsesim import ir, permqueue, scheduler, shor, simulator, state

# Input classes of a permqueue.execute call, tested in this order: "split"
# when the call's thresholds let the pass split across workers (queue longer
# than par_min_queue, map larger than par_min_states, thread budget above 1);
# "wide" when labels have more than 62 bits; "small" for maps under 64
# entries; "large" otherwise.
NARROW_MAX_BITS = 62
SMALL_ENTRIES = 64
QUEUE_CLASSES = ("split", "wide", "small", "large")

# The builders shor imports by name from sparsesim.arithmetic.
SHOR_BUILDERS = ("cdkm_add", "cswap_regs", "iqft", "load_const", "phi_add_const", "qft")

# Which layer a span's self time belongs to.
LAYER_OF_SPAN = {
    "shor.run_factoring": "shor.self_s",
    "shor.run_dlog": "shor.self_s",
    "simulator.apply_all": "scheduler.frontend_self_s",
    "simulator.run_program": "scheduler.frontend_self_s",
    "scheduler.flush_qubits": "scheduler.frontend_self_s",
    "simulator.measure": "simulator.self_s",
    "simulator.flush": "simulator.self_s",
    "permqueue.execute": "permqueue.execute_s",
    "state.apply_block": "state.pairwise_s",
    "state.measure": "state.measure_s",
    "ir.parse_circuit": "ir.parse_s",
    **{f"arithmetic.{b}": "arithmetic.gen_s" for b in SHOR_BUILDERS},
}
SELF_TIME_LAYERS = sorted(set(LAYER_OF_SPAN.values()))

_QUEUE_FIELDS = (
    ("execute_s", "s"),
    ("execute_calls", "count"),
    ("records", "count"),
    ("record_entries", "count"),
    ("records_per_call", "count"),
    ("ns_per_record_entry", "ns"),
)

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = (
    [
        ("ir.validate_calls", "count"),
        ("ir.parse_s", "s"),
        ("scheduler.frontend_self_s", "s"),
        ("scheduler.flush_calls", "count"),
        ("scheduler.absorbed_ratio", "ratio"),
    ]
    + [(f"permqueue.{f}{suffix}", u) for suffix in ("",) + tuple("." + c for c in QUEUE_CLASSES) for f, u in _QUEUE_FIELDS]
    + [
        ("state.pairwise_s", "s"),
        ("state.pairwise_calls", "count"),
        ("state.pairwise_entries_out", "count"),
        ("state.measure_s", "s"),
        ("state.measure_calls", "count"),
        ("state.measure_entries", "count"),
        ("simulator.self_s", "s"),
        ("arithmetic.gen_s", "s"),
        ("arithmetic.gen_calls", "count"),
        ("shor.self_s", "s"),
        ("process.cpu_s", "s"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
        ("trace.overhead_s", "s"),
        ("trace.self_sum_share", "ratio"),
    ]
)


def queue_class(n_records, n_entries, width, thread_budget, par_min_queue, par_min_states) -> str:
    if thread_budget > 1 and n_records > par_min_queue and n_entries > par_min_states:
        return "split"
    if width > NARROW_MAX_BITS:
        return "wide"
    if n_entries < SMALL_ENTRIES:
        return "small"
    return "large"


class Tracer:
    """Spans and counters for one traced run; ``installed()`` patches the program."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index); None while open
        self._stack = [-1]
        self.counts = defaultdict(int)
        # per class: [ns, calls, records, record_entries]
        self.queue = {c: [0, 0, 0, 0] for c in QUEUE_CLASSES}
        self._clock = time.perf_counter_ns

    # -- wrappers ------------------------------------------------------------

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    def _close(self, name, idx, parent, start, end):
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    def _timed(self, name, fn):
        clock = self._clock

        def timed(*args, **kwargs):
            idx, parent = self._open()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, idx, parent, start, clock())

        return timed

    def _drained(self, name, fn):
        clock = self._clock
        counts = self.counts

        def drained(*args, **kwargs):
            counts["arithmetic.gen_calls"] += 1
            idx, parent = self._open()
            start = clock()
            try:
                return list(fn(*args, **kwargs))
            finally:
                self._close(name, idx, parent, start, clock())

        return drained

    def _counted(self, key, fn):
        cell = [0]
        self._cells.append((key, cell))

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _execute(self, fn):
        clock = self._clock
        queue_acc = self.queue

        def execute(
            queue,
            st,
            thread_budget=1,
            par_min_queue=permqueue.DEFAULT_PAR_MIN_QUEUE,
            par_min_states=permqueue.DEFAULT_PAR_MIN_STATES,
            **kwargs,
        ):
            n_records = len(queue.records)
            n_entries = len(st.amps)
            cls = queue_class(n_records, n_entries, st.num_qubits, thread_budget, par_min_queue, par_min_states)
            acc = queue_acc[cls]
            idx, parent = self._open()
            start = clock()
            try:
                return fn(queue, st, thread_budget, par_min_queue, par_min_states, **kwargs)
            finally:
                end = clock()
                self._close("permqueue.execute", idx, parent, start, end)
                acc[0] += end - start
                acc[1] += 1
                acc[2] += n_records
                acc[3] += n_records * n_entries

        return execute

    def _apply_block(self, fn):
        timed = self._timed("state.apply_block", fn)
        counts = self.counts

        def apply_block(st, *args, **kwargs):
            out = timed(st, *args, **kwargs)
            counts["state.pairwise_entries_out"] += len(out.amps)
            return out

        return apply_block

    def _measure(self, fn):
        timed = self._timed("state.measure", fn)
        counts = self.counts

        def measure(st, *args, **kwargs):
            counts["state.measure_entries"] += len(st.amps)
            return timed(st, *args, **kwargs)

        return measure

    @contextmanager
    def installed(self):
        """Patch the program's lookup points; restore them on exit."""
        self._cells = []
        self.rep_start = len(self.spans)
        patches = [
            (shor, "run_factoring", self._timed("shor.run_factoring", shor.run_factoring)),
            (shor, "run_dlog", self._timed("shor.run_dlog", shor.run_dlog)),
            *[(shor, b, self._drained(f"arithmetic.{b}", getattr(shor, b))) for b in SHOR_BUILDERS],
            (simulator, "validate_op", self._counted("ir.validate_calls", simulator.validate_op)),
            (ir, "validate_op", self._counted("ir.validate_calls", ir.validate_op)),
            (ir, "parse_circuit", self._timed("ir.parse_circuit", ir.parse_circuit)),
            (simulator, "run_program", self._timed("simulator.run_program", simulator.run_program)),
            (simulator.Simulator, "apply_all", self._timed("simulator.apply_all", simulator.Simulator.apply_all)),
            (simulator.Simulator, "measure", self._timed("simulator.measure", simulator.Simulator.measure)),
            (simulator.Simulator, "flush", self._timed("simulator.flush", simulator.Simulator.flush)),
            (scheduler, "flush_qubits", self._timed("scheduler.flush_qubits", scheduler.flush_qubits)),
            (permqueue, "execute", self._execute(permqueue.execute)),
            (state.SparseState, "apply_block", self._apply_block(state.SparseState.apply_block)),
            (state.SparseState, "measure", self._measure(state.SparseState.measure)),
        ]
        saved = [(obj, attr, obj.__dict__[attr]) for obj, attr, _ in patches]
        try:
            for obj, attr, new in patches:
                setattr(obj, attr, new)
            yield self
        finally:
            for obj, attr, old in reversed(saved):
                setattr(obj, attr, old)
            for key, cell in self._cells:
                self.counts[key] += cell[0]

    # -- results -------------------------------------------------------------

    def self_times_ns(self) -> dict[str, int]:
        """Self time per layer, summed over all recorded spans."""
        spans = self.spans
        child = [0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(SELF_TIME_LAYERS, 0)
        for i, (name, start, end, _) in enumerate(spans):
            out[LAYER_OF_SPAN[name]] += end - start - child[i]
        return out

    def last_rep_spans(self) -> dict:
        """Spans recorded since the last ``installed()``, parents re-based to that list."""
        base = self.rep_start
        names = sorted(LAYER_OF_SPAN)
        index = {n: i for i, n in enumerate(names)}
        rows = [
            [index[name], start, end, parent - base if parent >= 0 else -1]
            for name, start, end, parent in self.spans[base:]
        ]
        return {"names": names, "columns": ["name", "start_ns", "end_ns", "parent"], "spans": rows}

    def span_calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def queue_metrics(self, reps: int) -> dict[str, float]:
        """Per-rep permqueue.execute figures, overall and per input class."""
        out = {}
        total = [sum(self.queue[c][i] for c in QUEUE_CLASSES) for i in range(4)]
        for suffix, (ns, calls, records, rec_entries) in [("", total)] + [
            ("." + c, self.queue[c]) for c in QUEUE_CLASSES
        ]:
            out[f"permqueue.execute_s{suffix}"] = ns / 1e9 / reps
            out[f"permqueue.execute_calls{suffix}"] = calls / reps
            out[f"permqueue.records{suffix}"] = records / reps
            out[f"permqueue.record_entries{suffix}"] = rec_entries / reps
            out[f"permqueue.records_per_call{suffix}"] = records / calls if calls else 0.0
            out[f"permqueue.ns_per_record_entry{suffix}"] = ns / rec_entries if rec_entries else 0.0
        return out
