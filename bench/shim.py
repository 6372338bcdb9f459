"""Run one ``weil`` command with the span wrappers installed.

Usage: python shim.py SPANS_OUT OP_ID -- WEIL_ARGS...

Imports ``weilkit.cli``, notes when the import finished (``perf_counter``
is the system-wide monotonic clock, so the parent can subtract its spawn
time), wraps the layers, runs ``weilkit.cli.main`` and writes the spans to
SPANS_OUT as JSON.  Exits with the command's exit code.
"""

import json
import os
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import weilkit.cli  # noqa: E402

ready = perf_counter()

import spans  # noqa: E402


def main() -> int:
    out_path, op = sys.argv[1], int(sys.argv[2])
    if sys.argv[3] != "--":
        raise SystemExit("usage: shim.py SPANS_OUT OP_ID -- WEIL_ARGS...")
    recorder = spans.Recorder()
    recorder.op = op
    spans.install(recorder)
    try:
        code = weilkit.cli.main(sys.argv[4:])
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"ready": ready, "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
