#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/test/selftest.py

Runs every workload of BENCHMARK.json at self-test size (--tiny) and checks:
  * the result line has exactly correct/attempted/failed/metrics, the run
    is correct, and every end-to-end metric (--trace 0) or per-layer metric
    (--trace 1) is present with its declared unit and a finite value;
  * two runs of train with the same seed report the same loss digest;
  * corrupting one reference value (--corrupt-reference) makes the output
    check fail: nonzero exit, "correct": false and a mismatch naming the
    request.
Exit status 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SEED = 7
SECONDS = "2"

failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}", file=sys.stderr)


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2]) if len(lines) >= 2 else None
    return p, result, detail


def check_metrics(label, result, declared):
    check(result is not None, f"{label}: no result line")
    if result is None:
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True, f"{label}: correct is not true")
    check(isinstance(result.get("attempted"), int) and result["attempted"] >= 1,
          f"{label}: attempted must be a whole number >= 1")
    check(isinstance(result.get("failed"), int), f"{label}: failed not an int")
    got = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    check(set(got) == set(want),
          f"{label}: metric names differ: missing {sorted(set(want) - set(got))}"
          f", extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        check(m.get("unit") == unit, f"{label}: {name} unit {m.get('unit')} != {unit}")
        v = m.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{label}: {name} value {v!r} is not a finite number")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        name = w["name"]
        p, result, _ = run(name, 0)
        check(p.returncode == 0, f"{name}: exit {p.returncode}: {p.stderr[-400:]}")
        check_metrics(f"{name} --trace 0", result, bench["end_to_end"])
        for m in bench["end_to_end"]:
            v = (result or {}).get("metrics", {}).get(m["name"], {}).get("value")
            check(isinstance(v, (int, float)) and v > 0,
                  f"{name}: end-to-end metric {m['name']} must be positive")
        p, result, _ = run(name, 1)
        check(p.returncode == 0, f"{name} trace: exit {p.returncode}: {p.stderr[-400:]}")
        check_metrics(f"{name} --trace 1", result, bench["per_layer"])

    digests = []
    for _ in range(2):
        p, result, detail = run("train", 0)
        digests.append((detail or {}).get("training", {}).get("loss_digest"))
    check(digests[0] is not None and digests[0] == digests[1],
          f"train loss digest differs between runs: {digests}")

    p, result, _ = run("serve_cold", 0, "--corrupt-reference")
    check(p.returncode != 0, "corrupted reference: exit status was 0")
    check(result is not None and result.get("correct") is False,
          "corrupted reference: result not marked incorrect")
    check("MISMATCH" in p.stderr and "request #" in p.stderr,
          "corrupted reference: no mismatch naming the request")

    if failures:
        print(f"selftest: {len(failures)} check(s) failed", file=sys.stderr)
        return 1
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
