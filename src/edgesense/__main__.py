"""Entry point for ``python -m edgesense`` and the ``edgesense`` command."""

import os

# Every solve runs OpenBLAS on one thread, and an idle worker thread spins a core.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402  (after the variable: OpenBLAS reads it when numpy loads)

if __name__ == "__main__":
    raise SystemExit(main())
