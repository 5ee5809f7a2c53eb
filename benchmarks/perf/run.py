"""Entry point named by ``BENCHMARK.json``: ``python3 benchmarks/perf/run.py``.

Runs from a plain checkout with nothing on ``PYTHONPATH``: the repo root
(for ``benchmarks.perf``) and ``src`` (for ``repro``) are added here.
"""

import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    from benchmarks.perf.cli import main

    raise SystemExit(main(started=STARTED))
