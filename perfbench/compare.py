"""Compare two saved benchmark outputs, flagging cross-host comparisons.

    python3 perfbench/run.py --workload demand-rw --seed 1 --seconds 25 > a.out
    ... change the code ...
    python3 perfbench/run.py --workload demand-rw --seed 1 --seconds 25 > b.out
    python3 perfbench/compare.py a.out b.out

Prints each metric's change.  When the two outputs' host facts differ
(core count, Python version, platform), every row is flagged and the exit
status is 3: host time measured on different machines is not comparable.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import HOST_KEYS  # noqa: E402


def read_output(path: str):
    host, result = None, None
    with open(path) as stream:
        for line in stream:
            if line.startswith("host "):
                host = json.loads(line[len("host "):])
            elif line.startswith("{"):
                result = json.loads(line)
    if host is None or result is None:
        raise SystemExit(f"{path}: not a perfbench output")
    return host, result


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (host_a, result_a), (host_b, result_b) = map(read_output, argv)
    differing = [key for key in HOST_KEYS if host_a.get(key) != host_b.get(key)]
    flag = ""
    if differing:
        flag = "  [cross-host]"
        for key in differing:
            print(f"cross-host comparison: {key} {host_a.get(key)!r} "
                  f"vs {host_b.get(key)!r}")
    for name, metric in result_a["metrics"].items():
        other = result_b["metrics"].get(name)
        if other is None:
            print(f"{name}: missing from {argv[1]}")
            continue
        before, after = metric["value"], other["value"]
        change = f"{(after - before) / before:+.1%}" if before else "n/a"
        print(f"{name}: {before:.6g} -> {after:.6g} {metric['unit']} "
              f"({change}){flag}")
    for label, result in (("before", result_a), ("after", result_b)):
        print(f"{label}: {result['failed']} of {result['attempted']} failed")
    return 3 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
