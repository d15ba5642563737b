"""Set-up probe: time `import lieform` and input construction in a fresh
interpreter, then print the timings as one JSON object.

run.py starts this script as a child process with PYTHONPATH pointing at
the checkout's `src`:

    python3 perfbench/probe_setup.py <workload> <seed>

API workloads import lieform and build grid, velocity and initial form;
CLI workloads import lieform.cli and parse their argument vector.
"""

from __future__ import annotations

import json
import sys
import time

import inputs


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    marks = {}
    start = time.perf_counter()
    last = start

    def tick(label: str) -> None:
        nonlocal last
        now = time.perf_counter()
        marks[label] = now - last
        last = now

    if name in inputs.CLI_WORKLOADS:
        import lieform.cli
        tick("import")
        lieform.cli.build_parser().parse_args(
            inputs.CLI_WORKLOADS[name] + ["--out", "unused"])
        tick("cli.parse")
    else:
        import lieform
        tick("import")
        inputs.build_api_inputs(lieform, name, inputs.rect_shift(seed), tick)
    marks["total"] = time.perf_counter() - start
    print(json.dumps(marks))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
