#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file exported by lcda_run --trace-spans.

Checks the invariants the exporter promises (trace.h):

  - the document is well-formed JSON with a "traceEvents" array and at
    least one span (an empty timeline means the spans never fired — a
    wiring regression, not a quiet success);
  - every event carries a pid, and its ph is "X" (a complete span) or "M"
    (a lane's metadata); begin/end ("B"/"E") records are rejected;
  - every span carries a name, a tid, a finite ts and a finite dur >= 0;
  - the spans of each (pid, tid) lane nest: two spans on one lane are
    either disjoint or one contains the other.

Optional arguments assert the merged-timeline shape:

  --min-pids=N   require at least N distinct pid lanes (a distributed
                 run's merged timeline must span the coordinator AND its
                 workers; 1 + worker count is the natural bar)

Exit status: 0 when valid, 1 when any check fails, 2 on usage errors.
"""
import json
import math
import sys


def fail(msg):
    print(f"FATAL: {msg}", file=sys.stderr)
    sys.exit(1)


def is_number(v):
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def main():
    path = None
    min_pids = 1
    for arg in sys.argv[1:]:
        if arg.startswith("--min-pids="):
            min_pids = int(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            sys.exit(f"usage: {sys.argv[0]} [--min-pids=N] trace.json")
        else:
            path = arg
    if path is None:
        sys.exit(f"usage: {sys.argv[0]} [--min-pids=N] trace.json")

    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{path}: not readable as JSON: {e}")

    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list):
        fail(f"{path}: no 'traceEvents' array")

    lanes = {}  # (pid, tid) -> [(ts, end, event index)]
    pids = set()
    for i, e in enumerate(events):
        if not isinstance(e, dict):
            fail(f"{path}: event {i} is not an object")
        ph = e.get("ph")
        if ph not in ("X", "M"):
            fail(f"{path}: event {i} has unexpected ph {ph!r}")
        if "pid" not in e:
            fail(f"{path}: event {i} has no pid")
        pids.add(e["pid"])
        if ph == "M":
            continue
        for key in ("name", "tid", "ts", "dur"):
            if key not in e:
                fail(f"{path}: event {i} ({ph}) has no {key}")
        ts, dur = e["ts"], e["dur"]
        if not is_number(ts) or not is_number(dur):
            fail(f"{path}: event {i}: ts {ts!r} and dur {dur!r} must be "
                 f"numbers")
        if dur < 0:
            fail(f"{path}: event {i}: negative dur {dur}")
        lanes.setdefault((e["pid"], e["tid"]), []).append((ts, ts + dur, i))

    # Outermost first: by begin, and the longer of two spans that begin
    # together first. A span then nests when it lies inside the innermost
    # span still open at its begin.
    spans = 0
    for (pid, tid), lane in lanes.items():
        spans += len(lane)
        lane.sort(key=lambda s: (s[0], -s[1]))
        open_spans = []
        for ts, end, i in lane:
            while open_spans and open_spans[-1][1] <= ts:
                open_spans.pop()
            if open_spans and end > open_spans[-1][1]:
                fail(f"{path}: event {i} [{ts}, {end}] overlaps event "
                     f"{open_spans[-1][2]} on pid={pid} tid={tid}")
            open_spans.append((ts, end, i))

    if spans == 0:
        fail(f"{path}: no spans at all — instrumentation never fired")
    if len(pids) < min_pids:
        fail(f"{path}: only {len(pids)} pid lane(s), expected >= {min_pids}")

    print(f"{path}: OK — {spans} spans across {len(pids)} pid lane(s), "
          f"{len(lanes)} thread lane(s)")


if __name__ == "__main__":
    main()
