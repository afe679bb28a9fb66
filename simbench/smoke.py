"""Smoke test of the benchmark itself, at a tiny tier.

For every workload ``simbench/run.py`` knows (``serve-1e5`` too, which
``BENCHMARK.json`` does not list) it runs ``simbench/run.py --tiny``
untraced and traced, and checks that each run passes its output check
and prints every named metric with its unit, both in the report lines
and in the final JSON line, and that untraced runs also print the
metrics that are measured but not bounded.  Then it runs each workload
once with ``--corrupt-reference`` and checks that the output check
fails.  Takes about a minute.

Usage (from the root of a checkout)::

    python3 simbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from simbench.run import UNBOUNDED, WORKLOADS  # noqa: E402


def _run(workload, trace, *extra):
    command = [
        sys.executable, "simbench/run.py", "--workload", workload,
        "--seed", "3", "--seconds", "2", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(
        command + list(extra), cwd=str(ROOT), capture_output=True, text=True,
        timeout=170,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done, lines, result


def _check_metrics(label, listed, lines, result, problems):
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) >= 3:
            printed[fields[0]] = fields[2]
    for name, unit in UNBOUNDED.items():
        if label.endswith("--trace 0") and printed.get(name) != unit:
            problems.append("{}: {} not printed with unit {}".format(
                label, name, unit))
    for metric in listed:
        name, unit = metric["name"], metric["unit"]
        entry = result["metrics"].get(name)
        if entry is None or entry["unit"] != unit:
            problems.append("{}: {} missing from the JSON line".format(label, name))
        elif not isinstance(entry["value"], (int, float)):
            problems.append("{}: {} is not a number".format(label, name))
        if printed.get(name) != unit:
            problems.append("{}: {} not printed with unit {}".format(
                label, name, unit))
    extra = set(result["metrics"]) - {metric["name"] for metric in listed}
    if extra:
        problems.append("{}: unlisted metrics {}".format(label, sorted(extra)))


def main():
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "{} --trace {}".format(name, trace)
            done, lines, result = _run(name, trace)
            if done.returncode != 0 or result is None:
                problems.append("{}: exit {}: {}".format(
                    label, done.returncode, done.stderr[-600:]))
                continue
            if not result["correct"] or result["failed"]:
                problems.append("{}: output check failed".format(label))
            _check_metrics(label, spec[key], lines, result, problems)
            print("ok  {} ({} metrics)".format(label, len(result["metrics"])))
        label = "{} --corrupt-reference".format(name)
        done, lines, result = _run(name, 0, "--corrupt-reference")
        if done.returncode == 0 or result is None or result["correct"]:
            problems.append("{}: a corrupted reference was not caught".format(
                label))
        else:
            print("ok  {} (caught: {} failed)".format(label, result["failed"]))
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
