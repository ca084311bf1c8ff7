"""Run one maghardy CLI command with the layer wrappers installed.

Usage: python perfbench/cli_child.py TRACE_FILE SUBCOMMAND [flags...]

Used only by the traced run of the cli-cold workload; the spans and
counters are written to TRACE_FILE as JSON when the command returns.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402


def main():
    trace_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    import maghardy.cli

    restore = layers.install(tracer)
    try:
        code = maghardy.cli.main(argv)
    finally:
        restore()
        Path(trace_file).write_text(json.dumps(tracer.dump()))
    return code


if __name__ == "__main__":
    sys.exit(main())
