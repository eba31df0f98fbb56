"""Run one altrings CLI command in this fresh interpreter with the tracer installed.

    python perfbench/traced_cli.py OP_ID TRACE_OUT -- ARGS...

ARGS are passed to `altrings.cli.main` exactly as `python -m altrings ARGS`
would pass them, so the report on stdout is the same.  The spans go to the
JSON file TRACE_OUT once the command has returned.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import altrings.cli  # noqa: E402  (loads every module the command can reach)
from tracer import Tracer  # noqa: E402


def main() -> int:
    op, out, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced_cli.py OP_ID TRACE_OUT -- ARGS...")
    tracer = Tracer()
    tracer.op = int(op)
    tracer.install("altrings")
    try:
        code = altrings.cli.main(args)
    finally:
        sys.stdout.flush()
        Path(out).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
