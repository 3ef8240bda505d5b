"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/probe.py WORKLOAD SEED SIZE

Imports sktspec, resolves the workload's parameters, makes the first
`RhsAssembler.for_order` call (which builds the tensors) and projects the
initial data, then prints one JSON line whose "ready" field is the
`time.perf_counter()` reading at that point.  That clock is system-wide
monotonic on Linux, so the parent subtracts its own reading taken just
before it started this process.  For screen-params the probe stops before
the first `check_conditions` call.
"""

import json
import os
import sys
import time


def main(argv) -> int:
    name, seed, size = argv[0], int(argv[1]), argv[2]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import workloads

    info = workloads.make(name, seed, size).probe()
    ready = time.perf_counter()
    print(json.dumps(dict(info, ready=ready)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
