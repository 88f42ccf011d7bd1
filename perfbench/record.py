"""Record the expected output digest of every task any seed can draw.

    PYTHONPATH=src:perfbench python3 perfbench/record.py

Rewrites perfbench/expected.json.  Run it only when a change of output is
intended; the benchmark flags every task whose output differs from it.
"""

from __future__ import annotations

import json
import os
import sys

import workloads


def main():
    out = {}
    for workload in workloads.WORKLOADS:
        for task in workloads.task_pool(workload):
            text, passed = workloads.run_task(task)
            if not passed:
                raise SystemExit("%s: a check failed" % workloads.task_key(task))
            out[workloads.task_key(task)] = workloads.digest(text)
            print(workloads.task_key(task), out[workloads.task_key(task)][:12],
                  flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "expected.json")
    with open(path, "w") as fh:
        json.dump({"tasks": out}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
