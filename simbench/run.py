"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 simbench/run.py --workload warm-1e6 --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (including each layer's self time and the tracing overhead).
Every metric is printed by name with its unit, followed by the
output-check verdict; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A full record (provenance, every metric, check details)
is written under ``simbench/out/``.  The exit code is 0 only when every
operation succeeded and every checked answer matched its reference.

``--tiny`` shrinks every tier for the smoke test (``simbench/smoke.py``)
and ``--corrupt-reference`` corrupts the reference answers so that the
smoke test can see the output check fail.
"""

import argparse
import json
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from simbench import common  # noqa: E402

WORKLOADS = ("warm-1e6", "serve-1e5", "adhoc-1e5")

#: End-to-end metrics measured and printed but not in ``BENCHMARK.json``,
#: which bounds every metric it lists; these could not be bounded (see
#: ``simbench/README.md``).
UNBOUNDED = {"query_p99_ms": "ms", "failed_frac": "fraction"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--corrupt-reference", action="store_true")
    return parser.parse_args(argv)


def _run_workload(args):
    from simbench import inprocess, serve

    options = {
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "tiny": args.tiny,
        "corrupt": args.corrupt_reference,
    }
    if args.workload == serve.NAME:
        return serve.run(**options)
    return inprocess.run(inprocess.WORKLOADS[args.workload], **options)


def _layer_values(result, args):
    from simbench.tracing import SpanView, layer_metrics

    trace = result["trace"]
    if "tracer" in trace:
        spans = trace["tracer"].spans
        view = SpanView(spans)
        counters = trace["tracer"].counters
    else:
        spans = trace["spans"]
        view, counters = trace["view"], trace["counters"]
    common.write_record(
        "spans-{}-{}.json".format(args.workload, args.seed),
        {"spans": [list(span) for span in spans],
         "fields": ["id", "parent", "root", "name", "start", "end", "phase"]},
    )
    return layer_metrics(view, counters, trace["facts"])


def main(argv=None):
    args = _parse(argv)
    common.use_checkout_sources()
    definition = common.spec()
    try:
        result = _run_workload(args)
    except Exception:  # no valid measurement: report and exit non-zero
        traceback.print_exc()
        return 1
    if args.trace:
        values = _layer_values(result, args)
        listed = definition["per_layer"]
    else:
        values = result["end_to_end"]
        listed = definition["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in listed
    }
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0
    values["failed_frac"] = failed / attempted
    record = {
        "provenance": common.provenance(args.workload, args.seed, result["tiers"]),
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": values["failed_frac"],
        "checked_answers": result["checked"],
        "metrics": metrics,
        "all_metrics": values,
        "details": result["details"],
        "mismatches": result["mismatches"][:10],
        "errors": result["errors"],
        "stale_version_labels": result.get("stale_version_labels"),
    }
    path = common.write_record(
        "record-{}-{}-trace{}.json".format(args.workload, args.seed, args.trace),
        record,
    )
    for name, entry in metrics.items():
        print("{:28s} {:>14.6g} {}".format(name, entry["value"], entry["unit"]))
    for name, unit in UNBOUNDED.items():
        if name in values and name not in metrics:
            print("{:28s} {:>14.6g} {} (not bounded)".format(
                name, values[name], unit))
    verdict = "ok" if correct else "FAILED"
    print("output check: {} ({} answers checked, {} failed of {} attempted)"
          .format(verdict, result["checked"], failed, attempted))
    if result.get("stale_version_labels"):
        print("known defect: {} answers carried a version label other than "
              "the snapshot that produced them".format(
                  result["stale_version_labels"]))
    print("record: {}".format(path.relative_to(common.ROOT)))
    if not correct:
        sys.stderr.write(
            "simbench: output check FAILED: {} of {} operations failed; "
            "first mismatches and errors: {}\n".format(
                failed, attempted,
                json.dumps(result["mismatches"][:3] + result["errors"][:3]),
            )
        )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
