"""Run the skygs command line in this process with every listed layer traced.

    python3 perfbench/cli_child.py SPANS.json <skygs arguments...>

run.py starts this in place of `python3 -m skygs.cli` for traced operations
(with src/ on PYTHONPATH and PERFBENCH_SPAWN set to the monotonic time of the
spawn). It writes the merged spans to SPANS.json and exits with the command's
exit code. cli.start_s is the time from the spawn to the end of the imports.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from skygs import cli

    start_s = time.monotonic() - float(os.environ["PERFBENCH_SPAWN"])
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        summary = tracer.summary()
        summary.update(cli=True, cli_start_s=start_s)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
