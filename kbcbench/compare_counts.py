#!/usr/bin/env python3
"""Check that per-op counter deltas repeat exactly between two traced runs.

Run the same workload and seed twice with `--trace 1`, keeping a copy of the
first trace file, then:

    python3 kbcbench/compare_counts.py first.jsonl second.jsonl

Ops are paired in order (the runs may differ in how many ops fit in their
time). The counters named in EXACT must match exactly; any that do not are
printed as determinism findings and the exit code is 1. Other counters that
differ (pool steals, for instance) are listed for information only.
"""

import json
import sys

EXACT = (
    "train.steps",
    "nn.adam_steps",
    "tensor.",
    "candgen.",
    "nlp.tokens",
    "session.shard_cache.",
)


def traced_ops(path):
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    return [r for r in rows if r.get("type") == "op" and "counters" in r]


def is_exact(name):
    return any(name == p or (p.endswith(".") and name.startswith(p)) for p in EXACT)


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    a, b = traced_ops(sys.argv[1]), traced_ops(sys.argv[2])
    findings = 0
    paired = 0
    for op_a, op_b in zip(a, b):
        if op_a["kind"] != op_b["kind"]:
            print(f"op sequences diverge at {op_a['kind']} vs {op_b['kind']}")
            findings += 1
            break
        paired += 1
        ca, cb = op_a["counters"], op_b["counters"]
        for name in sorted(set(ca) | set(cb)):
            va, vb = ca.get(name, 0), cb.get(name, 0)
            if va == vb:
                continue
            if is_exact(name):
                findings += 1
                print(f"DETERMINISM FINDING op#{paired} {op_a['kind']}: {name} {va} != {vb}")
            else:
                print(f"varies (not required exact) op#{paired} {op_a['kind']}: {name} {va} vs {vb}")
    print(f"paired {paired} traced ops; {findings} exact-count mismatches")
    sys.exit(1 if findings else 0)


if __name__ == "__main__":
    main()
