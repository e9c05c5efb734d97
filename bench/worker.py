"""One workload process: set up, then run items in a closed loop.

Started by ``run.py`` in a fresh interpreter, one per measured run.  It
times its set-up from ``--spawned-at``, the parent's ``time.monotonic()``
just before the spawn (one system-wide clock on Linux), runs one item at a
time (no threads) until the deadline or the item count, and writes its
results as JSON to ``--out``.  With ``--calibrate`` it also times the
workload's host-speed kernel (``hostspeed.py``) before the first item and
after every item.  With ``--trace`` it wraps the library's layer functions
and also writes the per-layer metrics and a span file.

    python3 bench/worker.py --workload walk --seed 1 --seconds 10 --out r.json \
        --spawned-at "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def digest(record):
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--items", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads  # timed: imports every library module the items use
    import_s = time.perf_counter() - t0
    import hostspeed

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install(extra_namespaces=(workloads,))

    t_region = time.perf_counter()
    work = workloads.WORKLOADS[args.workload](args.seed)
    t_ready = time.perf_counter()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        Path(args.out).write_text(json.dumps({"setup_s": setup_s}))
        return 0

    kernel = work.HOST_KERNEL if args.calibrate else None
    if kernel:
        hostspeed.kernel_ms(kernel)  # warm-up, untimed
        host_ms = [hostspeed.kernel_ms(kernel)]
    deadline = t_ready + args.seconds if args.seconds is not None else None
    items = []
    i = 0
    while (i < args.items) if deadline is None else (
            i == 0 or time.perf_counter() < deadline):
        if tracer is not None:
            tracer.set_item(i)
        t = time.perf_counter()
        try:
            record, ok = work.item(i)
            error = None
        except Exception:  # an item that raises is counted failed; the run goes on
            record, ok, error = None, False, traceback.format_exc(limit=3)
        ms = (time.perf_counter() - t) * 1000
        items.append({"i": i, "ms": ms, "ok": bool(ok), "error": error,
                      "digest": digest(record) if record is not None else None})
        if kernel:
            host_ms.append(hostspeed.kernel_ms(kernel))
            items[-1]["host_ms"] = (host_ms[-2] + host_ms[-1]) / 2
        i += 1
    t_end = time.perf_counter()

    result = {
        "setup_s": setup_s,
        "import_s": import_s,
        "construct_s": t_ready - t_region,
        "loop_s": t_end - t_ready,
        "region_s": t_end - t_region,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": items,
        "finish_failed": work.finish(),
    }
    if kernel:
        result["host_kernel"] = kernel
    if hasattr(work, "deviations"):
        result["deviations_sigma"] = work.deviations()
    if tracer is not None:
        result["layers"] = tracer.metrics(t_end - t_region)
        if args.spans:
            tracer.write_spans(args.spans, t_region)
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
