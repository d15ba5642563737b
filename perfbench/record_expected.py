"""Record the expected l1_error of each API workload for every rectangle
shift a seed can select, and write them to perfbench/expected.json.

The benchmark requires each repeat to reproduce these values bit for bit.
Rerun this, from the root of a checkout, only in a change whose purpose
is to alter the result bits:

    python3 perfbench/record_expected.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from inputs import API_WORKLOADS, N_SHIFTS  # noqa: E402
from workloads import EXPECTED_PATH, ApiWorkload, StepClock, shift_key  # noqa: E402


def main() -> int:
    table = {}
    for name in API_WORKLOADS:
        for seed in range(N_SHIFTS * N_SHIFTS):
            wl = ApiWorkload(name, seed, None)
            final = wl.run(StepClock()).final
            table.setdefault(name, {})[shift_key(wl.shift)] = wl.l1_error(final)
            print(name, shift_key(wl.shift), repr(table[name][shift_key(wl.shift)]))
    EXPECTED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
