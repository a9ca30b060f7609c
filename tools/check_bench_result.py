#!/usr/bin/env python3
"""Validate the result line of an end-to-end benchmark run (e2ebench/run.py).

    python3 e2ebench/run.py --workload solve-cold --seed 1 --seconds 2 --trace 1 \\
        | python3 tools/check_bench_result.py --trace 1

Reads run.py's stdout from FILE (default: stdin), passes it through to
stdout unchanged, and checks its last line:
  1. it parses as a JSON object with the keys "correct", "attempted",
     "failed" and "metrics";
  2. "correct" is true, "attempted" and "failed" are non-negative
     integers;
  3. the metric names equal BENCHMARK.json's "end_to_end" names for an
     untraced run (--trace 0) or its "per_layer" names for a traced one
     (--trace 1): none missing, none extra;
  4. every metric is an object with a finite numeric "value" and a string
     "unit".

Exit status: 0 clean, 1 on any finding, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


def fail(message: str) -> None:
    print(f"check_bench_result: {message}", file=sys.stderr)
    raise SystemExit(1)


def expected_names(benchmark: Path, traced: bool) -> list[str]:
    with open(benchmark, "r", encoding="utf-8") as handle:
        declared = json.load(handle)
    return [metric["name"] for metric in declared["per_layer" if traced else "end_to_end"]]


def is_count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def check_result(line: str, names: list[str]) -> int:
    """Checks one result line; returns how many metrics it holds."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        fail(f"the last line is not JSON ({error}): {line[:200]}")
    if not isinstance(result, dict):
        fail("the last line is not a JSON object")
    missing_keys = [key for key in RESULT_KEYS if key not in result]
    if missing_keys:
        fail(f"the result object lacks {', '.join(missing_keys)}")
    if result["correct"] is not True:
        fail(f"correct is {json.dumps(result['correct'])}, not true")
    for key in ("attempted", "failed"):
        if not is_count(result[key]):
            fail(f"{key} is {json.dumps(result[key])}, not a non-negative integer")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        fail("metrics is not an object")
    missing = [name for name in names if name not in metrics]
    extra = sorted(set(metrics) - set(names))
    if missing:
        fail(f"missing metric {', '.join(missing)}")
    if extra:
        fail(f"undeclared metric {', '.join(extra)}")
    for name, metric in metrics.items():
        if not isinstance(metric, dict):
            fail(f"metric {name} is not an object")
        value = metric.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            fail(f"metric {name} has no numeric value: {json.dumps(value)}")
        if not math.isfinite(value):
            fail(f"metric {name} is not finite: {value}")
        if not isinstance(metric.get("unit"), str):
            fail(f"metric {name} has no unit")
    return len(metrics)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("file", nargs="?", help="run.py stdout (default: stdin)")
    parser.add_argument("--trace", required=True, choices=("0", "1"),
                        help="the --trace the run was made with")
    parser.add_argument("--benchmark", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCHMARK.json",
                        help="the benchmark declaration (default: the repo's)")
    options = parser.parse_args()

    try:
        names = expected_names(options.benchmark, options.trace == "1")
        if options.file is None:
            text = sys.stdin.read()
        else:
            with open(options.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, KeyError, TypeError, json.JSONDecodeError) as error:
        print(f"check_bench_result: {error}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    sys.stdout.flush()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        fail("no output to check")
    count = check_result(lines[-1], names)
    print(f"check_bench_result: ok ({count} metrics)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
