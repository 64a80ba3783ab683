"""Run one `lab split` campaign in this fresh interpreter and report on it.

    python3 perfbench/child.py CONFIG REPORT [SPANS]

Imports `hardylab.cli` from the checkout's `src` (timed as set-up), runs
`cli.main(["split", "--config", CONFIG])` (timed as the campaign) and writes
REPORT as JSON.  With SPANS, the tracer's wrappers are installed around the
campaign only, restored afterwards, and the spans and counts go to SPANS.
"""

import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv) -> int:
    config_path, report_path = argv[1], argv[2]
    spans_path = argv[3] if len(argv) > 3 else None
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import hardylab.cli

    setup_s = time.perf_counter() - start
    if not Path(hardylab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: hardylab imported from {hardylab.cli.__file__}", file=sys.stderr)
        return 2

    tracer = None
    if spans_path is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    exit_code, error = None, None
    start = time.perf_counter()
    try:
        exit_code = hardylab.cli.main(["split", "--config", config_path])
    except Exception as exc:  # a raising campaign is a failed campaign
        error = f"{type(exc).__name__}: {exc}"
    campaign_s = time.perf_counter() - start
    if tracer is not None:
        tracer.restore()
        Path(spans_path).write_text(
            json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)})
        )

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    report = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "exit_code": exit_code,
        "error": error,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        },
    }
    Path(report_path).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
