"""Run the gradedmat command line with the layer wrappers installed.

    python3 gmbench/cli_child.py TRACE.json ARG...

Behaves like `python -m gradedmat ARG...` and, when the command ends, writes
the trace totals (counts, self times, inclusive times, spans) to TRACE.json.  The
traced run of the `cli` workload starts its requests through this file.
"""

import json
import sys
from pathlib import Path

import tracer
from gradedmat import cli  # found through PYTHONPATH, which the parent sets


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    trace = tracer.Tracer()
    trace.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits on --help and on usage errors
        code = exc.code if isinstance(exc.code, int) else 0 if exc.code is None else 1
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps(trace.totals()))
    return code


if __name__ == "__main__":
    sys.exit(main())
