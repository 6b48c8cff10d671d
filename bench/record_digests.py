"""Record the per-item result digests that run.py compares against.

    python3 bench/record_digests.py

Runs the first items of every workload, untimed, at workload seed 0 and at
the held-out seed, and writes bench/digests.json. A result must never change
for a given seed, so run this only to record more items, and only where the
items already recorded still match: it refuses to write otherwise.
"""

import json
import sys

from run import BENCH, load_package

HELD_OUT_SEED = 4099
COUNTS = {"train-z2": 700, "train-z4": 100, "enumerate-z6": 12, "backprop-lr0.5": 1000}


def main() -> int:
    load_package()
    from workloads import WORKLOADS
    path = BENCH / "digests.json"
    old = json.loads(path.read_text())["items"] if path.exists() else {}
    items = {}
    for name, count in COUNTS.items():
        workload = WORKLOADS[name]
        items[name] = {}
        for seed in (0, HELD_OUT_SEED):
            digests = [workload.run(workload.item_seed(seed, i)).digest() for i in range(count)]
            before = old.get(name, {}).get(str(seed), [])
            if digests[:len(before)] != before[:count]:
                print(f"{name} seed {seed}: results differ from the recorded ones", file=sys.stderr)
                return 1
            items[name][str(seed)] = digests
            print(f"{name} seed {seed}: {count} items", flush=True)
    path.write_text(json.dumps({"held_out_seed": HELD_OUT_SEED, "items": items}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
