"""Record the sha256 and size of every benchmark op's output into goldens.json.

    python3 perfbench/record_goldens.py

The goldens are the benchmark's correctness contract: record them again only
when a change is meant to alter the program's output.
"""
import json
import sys

from run import GOLDENS, WORKLOADS, run_op


def main() -> int:
    goldens = {}
    for ops in WORKLOADS.values():
        for op in ops:
            outcome = run_op(op, False, None)
            if outcome["error"]:
                print(f"{op.id}: {outcome['error']}", file=sys.stderr)
                return 1
            record = outcome["record"]
            goldens[op.id] = {"sha256": record["sha256"], "bytes": record["bytes"]}
            print(f"{op.id} {record['bytes']} B {outcome['wall']:.2f} s", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
