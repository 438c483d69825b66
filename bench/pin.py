"""Print pinned panel digests and metric means for a range of seeds.

Usage, from the repository root:

    python3 bench/pin.py FIRST LAST > bench/pinned.json

Runs every workload once per seed in FIRST..LAST (inclusive) and records
what `observe` saw, for seeds whose other output checks all pass.  The
benchmark then requires each later run at a pinned seed to reproduce the
digests exactly and the means to 1e-9 relative.  Regenerate only when a
change is meant to alter those outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import WORKLOADS


def main(first: int, last: int) -> int:
    pinned: dict = {name: {} for name in WORKLOADS}
    for seed in range(first, last + 1):
        for name, workload in WORKLOADS.items():
            report = run.measure(workload, seed, 0.0, False, min_reps=1)
            failing = [c["name"] for c in report["checks"]
                       if not c["ok"] and not c["name"].startswith("pinned ")]
            if failing:
                print(f"pin: {name} seed {seed} not pinned, failing: {failing}", file=sys.stderr)
                continue
            pinned[name][str(seed)] = report["observed"]
    json.dump(pinned, sys.stdout, indent=1, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
