#!/usr/bin/env python3
"""Compare two saved worldbench outputs, refusing unlike pairs.

    python3 worldbench/compare.py BEFORE.txt AFTER.txt

Each file is the stdout of one `worldbench/run.py` run. The pair is refused
(exit 1) unless both ran the same workload, seed and trace mode over the same
generated inputs (equal `inputs_digest`) on the same host and build (equal
`host:` line). Otherwise each metric is printed with its change, and the
checksums are compared: equal checksums mean both runs computed the same
protocol outcomes.
"""

import json
import re
import sys


def load(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().strip().splitlines()
    header = {}
    for line in lines:
        for key, value in re.findall(r"(\w+)=(\"[^\"]*\"|\S+)", line):
            header.setdefault(key, value)
        if line.startswith("host:"):
            header["host"] = line
    return header, json.loads(lines[-1])


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (a, ra), (b, rb) = load(argv[1]), load(argv[2])
    for key in ("workload", "seed", "trace", "inputs_digest", "host"):
        if a.get(key) != b.get(key):
            print(f"refused: {key} differs:\n  {a.get(key)}\n  {b.get(key)}")
            return 1
    for key in ("world_checksum", "resolved_checksum"):
        same = "same" if a.get(key) == b.get(key) else "DIFFERENT"
        print(f"{key}: {a.get(key)} -> {b.get(key)} ({same})")
    print(f"correct: {ra['correct']} -> {rb['correct']}")
    for name, before in ra["metrics"].items():
        after = rb["metrics"].get(name, {}).get("value")
        if after is None:
            print(f"{name:34s} {before['value']:16.6g} -> (missing)")
            continue
        base = before["value"]
        change = (after - base) / base if base else 0.0
        print(f"{name:34s} {base:16.6g} -> {after:16.6g} "
              f"{change:+8.2%} {before['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
