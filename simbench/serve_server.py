"""Server process of the ``serve-1e5`` workload.

Builds the server from the public API the way ``repro serve`` does — a
:class:`SimilarityService` over the generated database, one prepared
RelSim ``w-.w.w-.w`` query, a coalescing :class:`ReproServer` with
default settings and no worker processes — attaches a few in-process
standing queries, and serves until SIGTERM.  ``serve_forever`` prints
the ``serving repro on http://HOST:PORT`` line the load generator
waits for.  On shutdown it writes a JSON report (final version, the
standing queries' maintained rankings and, with ``--trace``, every
span) to ``--report``.  With ``--trace`` every entry point is wrapped
from the start; SIGUSR2 removes the wrappers and SIGUSR1 puts them back.

Usage::

    python3 simbench/serve_server.py --seed 1 --tier 100000 \\
        --report simbench/out/server.json [--subscribe paper:1,paper:2] \\
        [--trace]
"""

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from simbench import common  # noqa: E402

#: The prepared query shape every ``/query`` runs.
PATTERN = "w-.w.w-.w"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tier", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--subscribe", default="")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    common.use_checkout_sources()
    tracer = None
    if args.trace:
        from simbench.tracing import Tracer, coalesce_wait, mark_batch_start

        tracer = Tracer(
            {"api.run_many": mark_batch_start, "server.submit": coalesce_wait}
        )
        tracer.install()
        # The load generator alternates untraced and traced blocks.
        signal.signal(signal.SIGUSR1, lambda *_: tracer.install())
        signal.signal(signal.SIGUSR2, lambda *_: tracer.uninstall())
    from repro import api, datasets, server

    bundle = datasets.generate_dblp_scale(args.tier, seed=args.seed)
    service = api.SimilarityService(bundle.database, copy=False)
    prepared = service.prepare(
        algorithm="relsim", top_k=common.TOP_K, pattern=PATTERN
    )
    subscriptions = [
        service.subscribe(prepared, node)
        for node in filter(None, args.subscribe.split(","))
    ]
    app = server.ReproServer(service, prepared, host="127.0.0.1", port=0)
    if tracer is not None:
        tracer.phase = "serve"
    try:
        app.serve_forever()
    finally:
        report = {
            "version": service.version,
            "subscriptions": [
                [subscription.node, subscription.version, subscription.items()]
                for subscription in subscriptions
            ],
        }
        service.subscriptions.close()
        if tracer is not None:
            tracer.uninstall()
            report["spans"] = tracer.spans
            report["counters"] = [
                [phase, name, value]
                for (phase, name), value in tracer.counters.items()
            ]
        with open(args.report, "w") as handle:
            json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
