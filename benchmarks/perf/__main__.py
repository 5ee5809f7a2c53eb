"""``PYTHONPATH=src python -m benchmarks.perf`` — same program as ``run.py``."""

import time

STARTED = time.perf_counter()

if __name__ == "__main__":
    from benchmarks.perf.cli import main

    raise SystemExit(main(started=STARTED))
