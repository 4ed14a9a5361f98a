#!/usr/bin/env python3
"""Validates the one trace and the one metrics stream of a traced 2-worker run.

Usage: scripts/check_obs_outputs.py TRACE_JSON METRICS_JSONL

The trace must parse, hold at least 50 events with non-negative timestamps,
name thread tracks "rank 0" and "rank 1", and carry all-reduce flow arrows in
which every "f" id matches an "s" id. An "s" may stay unpaired: a rewind or a
peer death withdraws a contribution nobody consumes. Every metrics line must
parse, and "dist_worker" records must come from ranks 0 and 1.
"""
import json
import sys


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    assert len(events) >= 50, f"suspiciously small trace: {len(events)} events"
    tracks = set()
    flow_out, flow_in = set(), set()
    for ev in events:
        if ev.get("ph") == "M":
            if ev["name"] == "thread_name":
                tracks.add(ev["args"]["name"])
            continue
        assert ev["ts"] >= 0.0, f"negative timestamp: {ev}"
        if ev["ph"] == "s":
            flow_out.add(ev["id"])
        elif ev["ph"] == "f":
            flow_in.add(ev["id"])
    assert {"rank 0", "rank 1"} <= tracks, f"missing rank tracks: {tracks}"
    assert flow_out and flow_in, "all-reduce hand-offs should be flow arrows"
    unmatched = flow_in - flow_out
    assert not unmatched, f"flow-in ids with no flow-out: {sorted(unmatched)}"
    print(f"trace OK: {len(events)} events, tracks {sorted(tracks)}, "
          f"{len(flow_out)} flow-out / {len(flow_in)} flow-in ids")


def check_metrics(path):
    ranks = set()
    with open(path) as f:
        lines = [line for line in f if line.strip()]
    for line in lines:
        record = json.loads(line)
        if record.get("type") == "dist_worker":
            ranks.add(record["rank"])
    assert ranks == {0, 1}, f"dist_worker records from ranks {sorted(ranks)}"
    print(f"metrics OK: {len(lines)} records, dist_worker from ranks "
          f"{sorted(ranks)}")


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    check_trace(sys.argv[1])
    check_metrics(sys.argv[2])
