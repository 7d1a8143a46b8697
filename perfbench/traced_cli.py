"""Run one dsfusion CLI command under the tracer and dump its spans.

Usage: python traced_cli.py SPANS_PATH OP_ID CLI_ARGS...

The traced counterpart of ``python -m dsfusion.cli CLI_ARGS...`` for the
cli_oneshot workload: stdout and the exit code are the CLI's own.
"""

import sys

import dsfusion.cli
from tracer import Tracer


def main() -> int:
    spans_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.op = op
    tracer.install()
    code = dsfusion.cli.main(argv)
    tracer.uninstall()
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
