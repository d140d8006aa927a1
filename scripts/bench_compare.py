#!/usr/bin/env python3
"""Compare two bench JSON files and flag perf regressions.

Usage: bench_compare.py BASELINE.json CANDIDATE.json [--tolerance 0.10]

Handles both BENCH_micro_ops.json (serial_ns_per_iter per kernel record)
and BENCH_fl_scale.json (rounds_per_sec per population rung, compared as
ns-per-round so lower is uniformly better). Records are matched on
(op, size-or-n_clients, kernel). A record whose candidate time exceeds the
baseline by more than the tolerance is a regression; the exit code is 1 if
any regression is found, so a CI step can gate on it. Records present on
only one side are reported but never fail the comparison (benches come and
go across commits). A missing baseline file is a notice, not an error: the
first run on a branch has nothing to compare against, so CI proceeds and
uploads the candidate as the next baseline.

Only serial times are compared: pooled times depend on the runner's core
count, which differs between the machine that produced the baseline and CI.

Two informational summaries follow the regression table (neither gates):
  * quantized-kernel speedups within the candidate — for every (op, size)
    carrying an f32 row plus int8/fused siblings, the ratio of the f32
    (or unfused) serial time to the sibling's;
  * wire-bytes deltas for fl_scale rungs that report wire_bytes, so a codec
    change shows its uplink shrink next to the perf numbers.
"""
from __future__ import annotations

import argparse
import json
import sys


def load(path: str) -> dict[tuple[str, str, str], dict]:
    with open(path) as f:
        doc = json.load(f)
    out = {}
    for rec in doc.get("results", []):
        size = rec.get("size", rec.get("n_clients", ""))
        key = (rec.get("op", ""), str(size), rec.get("kernel", ""))
        out[key] = rec
    return out


def metric_ns(rec: dict) -> float | None:
    """A record's comparable cost in nanoseconds (lower is better)."""
    if "serial_ns_per_iter" in rec:
        return rec["serial_ns_per_iter"]
    rps = rec.get("rounds_per_sec")
    if isinstance(rps, (int, float)) and rps > 0:
        return 1e9 / rps
    return None


def fmt_key(key: tuple[str, str, str]) -> str:
    op, size, kernel = key
    return f"{op}/{size}" + (f"[{kernel}]" if kernel else "")


# Reference-kernel tag per sibling tag: quantized/fused rows are compared
# against the plain fp32 row that shares their (op, size).
QUANT_PAIRS = {
    "int8_prepacked": "f32_packed",
    "fused_epilogue": "unfused",
}


def summarize_quant(records: dict[tuple[str, str, str], dict]) -> None:
    lines = []
    for (op, size, kernel), rec in sorted(records.items()):
        ref_kernel = QUANT_PAIRS.get(kernel)
        if ref_kernel is None:
            continue
        ref = records.get((op, size, ref_kernel))
        if ref is None:
            continue
        b, c = metric_ns(ref), metric_ns(rec)
        if not b or not c:
            continue
        lines.append(f"  {op}/{size}: {kernel} is {b / c:.2f}x vs {ref_kernel}")
    if lines:
        print("\nquantized-kernel speedups (candidate, serial):")
        for line in lines:
            print(line)


def summarize_wire_bytes(base: dict[tuple[str, str, str], dict],
                         cand: dict[tuple[str, str, str], dict]) -> None:
    lines = []
    for key in sorted(base.keys() & cand.keys()):
        b, c = base[key].get("wire_bytes"), cand[key].get("wire_bytes")
        if not isinstance(b, (int, float)) or not isinstance(c, (int, float)) or c <= 0:
            continue
        codec = cand[key].get("update_codec", "")
        tag = f" [{codec}]" if codec else ""
        lines.append(f"  {fmt_key(key)}: {b:.0f} -> {c:.0f} bytes "
                     f"({b / c:.2f}x smaller){tag}" if b >= c else
                     f"  {fmt_key(key)}: {b:.0f} -> {c:.0f} bytes "
                     f"({c / b:.2f}x larger){tag}")
    if lines:
        print("\nwire bytes (baseline -> candidate):")
        for line in lines:
            print(line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("candidate")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=0.10,
        help="allowed fractional slowdown before a record counts as a regression",
    )
    args = ap.parse_args()

    try:
        base = load(args.baseline)
    except FileNotFoundError:
        print(f"notice: baseline {args.baseline} not found; nothing to compare "
              "(first run on this branch?) — passing")
        return 0
    cand = load(args.candidate)

    regressions = []
    print(f"{'record':<40} {'base ns':>14} {'cand ns':>14} {'ratio':>8}")
    print("-" * 80)
    for key in sorted(base.keys() & cand.keys()):
        b = metric_ns(base[key])
        c = metric_ns(cand[key])
        if b is None or c is None:
            print(f"{fmt_key(key):<40} (no comparable metric)")
            continue
        ratio = c / b if b > 0 else float("inf")
        marker = ""
        if ratio > 1.0 + args.tolerance:
            regressions.append((key, ratio))
            marker = "  <-- REGRESSION"
        print(f"{fmt_key(key):<40} {b:>14.0f} {c:>14.0f} {ratio:>7.2f}x{marker}")

    for key in sorted(base.keys() - cand.keys()):
        print(f"{fmt_key(key):<40} (only in baseline)")
    for key in sorted(cand.keys() - base.keys()):
        print(f"{fmt_key(key):<40} (only in candidate)")

    summarize_quant(cand)
    summarize_wire_bytes(base, cand)

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {args.tolerance:.0%}:")
        for key, ratio in regressions:
            print(f"  {fmt_key(key)}: {ratio:.2f}x")
        return 1
    print(f"\nno regressions beyond {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
