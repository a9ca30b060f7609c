#!/usr/bin/env python3
"""Validate a Chrome trace-event document emitted by --trace-out.

The obs tracer (src/obs/trace.cpp) writes complete ("ph":"X") events with
microsecond fixed-point timestamps, per-thread ids, and the request id
under "args".  CI runs this after serving the golden corpus with tracing
enabled, so a trace that stops loading in chrome://tracing / Perfetto —
or stops nesting, or loses its request ids — fails the job instead of
bitrotting silently.

Checks:
  1. the file parses as JSON and has a "traceEvents" list;
  2. every event is a complete event with the fields the tracer emits
     (name, cat, ph, ts, dur, pid, tid, args.request_id), all well-typed;
  3. per thread, spans nest: sorted by start (ties: longest first), every
     span is either disjoint from or fully contained in the one enclosing
     it — partial overlap means the RAII scoping was violated;
  4. optional: --require-phase NAME asserts a span with that name exists,
     --require-request-ids asserts every span carries a nonzero request
     id (no span, on any thread, is left unattributed).

Exit status: 0 clean, 1 on any finding, 2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

REQUIRED_FIELDS = ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args")


def fail(message: str) -> None:
    print(f"check_trace: {message}", file=sys.stderr)
    raise SystemExit(1)


def check_events(events: list) -> None:
    if not isinstance(events, list):
        fail('"traceEvents" is not a list')
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            fail(f"event {i} is not an object")
        for field in REQUIRED_FIELDS:
            if field not in event:
                fail(f"event {i} is missing {field!r}")
        if event["ph"] != "X":
            fail(f"event {i} has ph={event['ph']!r}, expected complete 'X'")
        for field in ("ts", "dur"):
            value = event[field]
            # json.loads never produces scientific notation here unless the
            # writer emitted it; bool is an int subclass, so reject it.
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                fail(f"event {i} has non-numeric {field}={value!r}")
            if value < 0:
                fail(f"event {i} has negative {field}={value}")
        args = event["args"]
        request_id = args.get("request_id") if isinstance(args, dict) else None
        if isinstance(request_id, bool) or not isinstance(request_id, int):
            fail(f"event {i} has no integer args.request_id")


def check_nesting(events: list) -> None:
    """Spans on one thread come from RAII scopes: strictly nested or
    disjoint.  A partial overlap (a span ending after the span that
    contains its start) cannot come from scoped timers."""
    by_tid = defaultdict(list)
    for event in events:
        by_tid[event["tid"]].append((event["ts"], event["ts"] + event["dur"], event["name"]))
    for tid, spans in sorted(by_tid.items()):
        spans.sort(key=lambda s: (s[0], -(s[1] - s[0])))
        stack = []  # ends of currently-open enclosing spans
        for start, end, name in spans:
            while stack and stack[-1][0] <= start:
                stack.pop()
            if stack and end > stack[-1][0]:
                fail(
                    f"tid {tid}: span {name!r} [{start}, {end}) partially "
                    f"overlaps enclosing span {stack[-1][1]!r} ending at "
                    f"{stack[-1][0]}"
                )
            stack.append((end, name))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace-event JSON file")
    parser.add_argument(
        "--require-phase",
        action="append",
        default=[],
        metavar="NAME",
        help="fail unless a span with this name exists (repeatable)",
    )
    parser.add_argument(
        "--require-request-ids",
        action="store_true",
        help="fail if any span has request id 0 (or there are no spans)",
    )
    options = parser.parse_args()

    try:
        with open(options.trace, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as error:
        print(f"check_trace: cannot read {options.trace}: {error}", file=sys.stderr)
        return 2
    try:
        document = json.loads(raw)
    except json.JSONDecodeError as error:
        fail(f"{options.trace} is not valid JSON: {error}")
    if not isinstance(document, dict) or "traceEvents" not in document:
        fail('top level is not an object with "traceEvents"')

    events = document["traceEvents"]
    check_events(events)
    check_nesting(events)

    names = {event["name"] for event in events}
    for phase in options.require_phase:
        if phase not in names:
            fail(f"required phase {phase!r} absent (saw: {sorted(names)})")
    if options.require_request_ids:
        if not events:
            fail("no spans to attribute")
        orphans = [e for e in events if e["args"]["request_id"] == 0]
        if orphans:
            fail(
                f"{len(orphans)} of {len(events)} spans carry request id 0 "
                f"(phases: {sorted({e['name'] for e in orphans})})"
            )

    print(
        f"check_trace: OK — {len(events)} spans, {len(names)} phases, "
        f"{len({e['tid'] for e in events})} threads"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
