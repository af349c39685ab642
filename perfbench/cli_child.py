"""`python -m melan.cli` with per-layer spans, for traced cli-configs requests.

    python cli_child.py <mode> --config NAME --out DIR

Behaves as the melan CLI (same arguments, same exit code) and also writes
DIR/_trace.json with the import time of melan.cli, the span totals, and
perf_counter readings (a system-wide monotonic clock) at the start of this
script and after main returns, from which the caller takes the
interpreter's own start-up and exit time.
"""

import json
import os
import sys
from time import perf_counter

STARTED = perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer  # noqa: E402


def main() -> int:
    argv = sys.argv[1:]
    start = perf_counter()
    import melan.cli

    import_s = perf_counter() - start
    trace = tracer.Tracer()
    trace.install()
    code = melan.cli.main(argv)
    finished = perf_counter()
    out = argv[argv.index("--out") + 1]
    with open(os.path.join(out, "_trace.json"), "w") as fh:
        json.dump({"import_s": import_s, "started": STARTED, "finished": finished,
                   **trace.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
