"""The study service in its own process, for the ``service_mix`` workload.

Usage (started by ``service_mix.py``, with ``PYTHONPATH`` at the source
tree)::

    python3 perfbench/server.py --store results.sqlite [--trace spans.jsonl]

Installs the backend probe (and, with ``--trace``, the span wrappers)
before ``serve()``, prints ``READY <url>`` and then obeys one command per
stdin line: ``window`` opens the timed window, ``stop <operations>`` closes
the server and prints one JSON line (selected backends, peak RSS,
handle-span totals and per-layer metrics) before exiting.  A closed stdin
stops the server too.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", default="", help="span file; empty: no tracing")
    args = parser.parse_args()

    from tracing import Tracer, handle_totals, install, install_backend_probe, layer_metrics

    from repro.api.stores import SQLiteStore
    from repro.service import serve

    selected = install_backend_probe()
    tracer = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
    server = serve(store=SQLiteStore(args.store), workers=2)
    print("READY", server.url, flush=True)
    operations = 0
    try:
        for line in sys.stdin:
            command = line.split()
            if command[:1] == ["window"] and tracer is not None:
                tracer.open_window()
            elif command[:1] == ["stop"]:
                operations = int(command[1]) if len(command) > 1 else 0
                break
    finally:
        if tracer is not None:
            tracer.close_window()
        server.close()
    record = {
        "backends": selected,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(tracer, operations)
        record["handle_count"], record["handle_ms"] = handle_totals(tracer)
        tracer.dump(args.trace)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
