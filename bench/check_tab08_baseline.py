#!/usr/bin/env python3
"""Checks a Table 8 bench JSON against its committed baseline.

    FARO_BENCH_FAST=1 ./build/bench/bench_tab08_largescale --race --bench-json
    python3 bench/check_tab08_baseline.py [RUN_JSON [BASELINE_JSON]]

RUN_JSON defaults to BENCH_tab08_largescale.json in the current directory,
BASELINE_JSON to bench/baselines/BENCH_tab08_largescale.json next to this
script. Every non-timing key of the baseline must be present in the run's
JSON: numbers must agree within 5e-3 (absolute), strings (such as
`*_race_winner`) exactly. Keys the run adds beyond the baseline are ignored.

Timing rule: `wall_ms`, `peak_rss_mb`, and any key containing `_ms` or
`speedup` measure the machine, not the program, and are not compared.
Exits 1 and lists every mismatch when the run differs from the baseline.
"""

import json
import os
import sys

TOLERANCE = 5e-3


def is_timing(key):
    return key in ("wall_ms", "peak_rss_mb") or "_ms" in key or "speedup" in key


def mismatches(got, want):
    for key, expected in want.items():
        if is_timing(key):
            continue
        if key not in got:
            yield "%s: missing (baseline %r)" % (key, expected)
            continue
        actual = got[key]
        if isinstance(expected, str) or isinstance(actual, str):
            if actual != expected:
                yield "%s: %r != baseline %r" % (key, actual, expected)
        elif abs(actual - expected) >= TOLERANCE:
            yield "%s: %r differs from baseline %r by >= %g" % (key, actual, expected, TOLERANCE)


def main(argv):
    run_path = argv[1] if len(argv) > 1 else "BENCH_tab08_largescale.json"
    base_path = argv[2] if len(argv) > 2 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "baselines", "BENCH_tab08_largescale.json")
    with open(run_path) as f:
        got = json.load(f)
    with open(base_path) as f:
        want = json.load(f)
    bad = list(mismatches(got, want))
    for line in bad:
        print("tab08 baseline mismatch: " + line, file=sys.stderr)
    checked = sum(1 for key in want if not is_timing(key))
    if bad:
        print("tab08: %d of %d non-timing keys differ from %s" % (len(bad), checked, base_path),
              file=sys.stderr)
        return 1
    print("tab08: all %d non-timing keys match %s (lost utility serial %s, multi-start %s)"
          % (checked, base_path, got["lost_utility_serial"], got["lost_utility_multistart"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
