"""Start one traced ``edgesense`` CLI process.

Usage: python bootstrap.py --spans FILE --phase PHASE -- <edgesense arguments>

Times a cold ``import edgesense.cli`` (what ``python -m edgesense``
loads), installs the span wrappers, runs ``cli.main`` and writes the spans
to FILE when it returns.  The exit code is that of ``cli.main``.
"""

from __future__ import annotations

import sys
import time

import tracing  # stdlib only, so the import of edgesense below stays cold


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    start = time.perf_counter()
    import edgesense.cli

    import_s = time.perf_counter() - start
    tracer = tracing.Tracer(phase=opts["--phase"])
    tracer.install()
    try:
        return edgesense.cli.main(argv[split + 1:])
    finally:
        tracer.dump(opts["--spans"], import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
