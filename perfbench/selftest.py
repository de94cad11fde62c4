"""Self-test of the benchmark, at reduced size.

    python3 perfbench/selftest.py

Runs every workload at reduced size (``workloads.REDUCED``), untraced and
traced, and checks that:

* every metric named in BENCHMARK.json is reported, with its unit, and no other;
* every output check passes;
* the layers' self times add up to the traced simulate time within 5%;
* the ``circuit_wide`` generator gives byte-identical text for one seed, also
  in another interpreter with another hash seed, and other text for another seed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run

SELF_SUM_TOLERANCE = 0.05
SECONDS = 1.0

_HASH_PROBE = """\
import hashlib, sys
sys.path[:0] = [{src!r}, {here!r}]
import workloads
text = workloads.WORKLOADS["circuit_wide"].instances[0].text({seed})
print(hashlib.sha256(text.encode()).hexdigest())
"""


def check_metrics(name: str, trace: bool, out: dict, want: dict[str, str]) -> list[str]:
    problems = []
    res = out["result"]
    if not res["correct"]:
        problems += [f"{name}: {e}" for e in out["errors"]]
    got = {k: m["unit"] for k, m in res["metrics"].items()}
    for key in sorted(set(want) | set(got)):
        if got.get(key) != want.get(key):
            problems.append(f"{name} trace={int(trace)}: metric {key}: unit {got.get(key)!r}, expected {want.get(key)!r}")
    if trace:
        share = res["metrics"]["trace.self_sum_share"]["value"]
        if abs(share - 1.0) > SELF_SUM_TOLERANCE:
            problems.append(f"{name}: layer self times cover {share:.3f} of the traced time")
    return problems


def check_generator(workloads) -> list[str]:
    inst = workloads.WORKLOADS["circuit_wide"].instances[0]
    seed = 7
    text = inst.text(seed).encode()
    problems = []
    if inst.text(seed).encode() != text:
        problems.append("circuit_wide: two generations with one seed differ")
    if inst.text(seed + 1).encode() == text:
        problems.append("circuit_wide: another seed gives the same circuit")
    probe = _HASH_PROBE.format(src=str(run.SRC), here=str(run.HERE), seed=seed)
    env = dict(os.environ, PYTHONHASHSEED="12345")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60, check=True)
    if done.stdout.strip() != hashlib.sha256(text).hexdigest():
        problems.append("circuit_wide: another interpreter generates other text for the same seed")
    return problems


def main() -> int:
    run.prepare()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = check_generator(workloads)
    if set(workloads.REDUCED) != set(workloads.WORKLOADS):
        problems.append("every workload needs a reduced version")
    for name, workload in workloads.REDUCED.items():
        for trace in (False, True):
            out = run.run_workload(workload, seed=1, seconds=SECONDS, trace=trace)
            problems += check_metrics(name, trace, out, wanted[trace])
            if trace:
                m = out["result"]["metrics"]
                print(
                    f"{name}: traced {m['trace.wall_s']['value']:.3f} s, self times cover "
                    f"{m['trace.self_sum_share']['value']:.4f}, overhead {m['trace.overhead_s']['value']:+.3f} s"
                )
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
