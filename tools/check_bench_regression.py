#!/usr/bin/env python3
"""Bench regression gate: compare a fresh bench_sweep JSON against the
committed baseline and fail when a guarded metric regressed by more than
the tolerance.

    check_bench_regression.py --baseline BENCH_sweep.json --fresh fresh.json \
        [--tolerance 0.25] [--keys sweep_probes_per_sec_1t,fft2d_256_mb_per_sec]

The guarded metrics default to the single-thread throughputs (gradient
sweep probes/sec and 256x256 FFT MB/s): they are the least noisy
numbers bench_sweep emits — no thread-scheduling variance, and since
PR 4 every one is a warmed best-of-N measurement, so a tolerance as
tight as 25% is meaningful on shared CI runners. The engine numbers
(sweep_probes_per_sec_1t, fft2d_256_mb_per_sec) guard the hot path,
sweep_probes_per_sec_ws guards the work-stealing scheduler (at 1 thread
it must stay within noise of the static path), and
sweep_probes_per_sec_1t_traced guards the telemetry-on sweep so span
tracing + metrics cannot silently become expensive, and the
sweep_probes_per_sec_{sync_ckpt,async} pair guards the checkpointed
end-to-end pipeline in both scheduling modes (async regressing toward
or below sync means the background slot stopped hiding the shard
I/O), and the fast-tier columns guard the --precision fast path:
sweep_probes_per_sec_1t_fast (the end-to-end FMA + compact-storage
sweep), cmul_mb_per_sec_fma (the FMA kernel table directly) and
transmittance_cache_mb (a lower-is-better footprint: the compact cache
growing back toward f32 size is a regression even if throughput holds).

Multi-thread speedup columns (sweep_speedup and friends) are guarded
only when the baseline was produced on a multi-core host: on a 1-core
runner (provenance.hardware_concurrency == 1) the "speedup" is pure
scheduling noise around 1.0, so those keys are skipped with an
annotation instead of being silently compared.

Keys missing from either file are reported and skipped, so adding
metrics to bench_sweep never breaks older baselines (the pre-PR-4
baseline simply skips the new keys).

Exit status: 0 when every guarded metric is within tolerance, 1 otherwise.
"""

import argparse
import json
import sys

DEFAULT_KEYS = (
    "sweep_probes_per_sec_1t,fft2d_256_mb_per_sec,"
    "sweep_probes_per_sec_ws,sweep_probes_per_sec_1t_traced,"
    "sweep_probes_per_sec_sync_ckpt,sweep_probes_per_sec_async,"
    "sweep_speedup,"
    "sweep_probes_per_sec_1t_fast,cmul_mb_per_sec_fma,transmittance_cache_mb"
)

# Metrics that only mean anything when more than one core was available to
# the run that produced the baseline.
MULTITHREAD_SPEEDUP_KEYS = {
    "sweep_speedup",
    "sweep_probes_per_sec_nt",
    "sweep_probes_per_sec_ws_nt",
    "sweep_ws_vs_static_nt",
}

# Metrics where smaller is better (footprints); the gate fails when they
# GROW by more than the tolerance.
LOWER_IS_BETTER_KEYS = {"transmittance_cache_mb"}


def cores(doc: dict) -> int:
    try:
        return int(doc.get("provenance", {}).get("hardware_concurrency", 0))
    except (TypeError, ValueError):
        return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True, help="committed BENCH_sweep.json")
    parser.add_argument("--fresh", required=True, help="JSON from the CI bench run")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="maximum allowed fractional regression (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--keys",
        default=DEFAULT_KEYS,
        help="comma-separated metrics to guard (higher-is-better unless known otherwise)",
    )
    args = parser.parse_args()

    with open(args.baseline, encoding="utf-8") as f:
        baseline = json.load(f)
    with open(args.fresh, encoding="utf-8") as f:
        fresh = json.load(f)

    # Either side having been produced on a 1-core host makes a thread
    # speedup comparison meaningless.
    single_core = cores(baseline) == 1 or cores(fresh) == 1

    failed = False
    compared = 0
    for key in [k for k in args.keys.split(",") if k]:
        if key in MULTITHREAD_SPEEDUP_KEYS and single_core:
            print(
                f"  SKIP {key}: provenance records a 1-core host — the multi-thread "
                "speedup is scheduling noise there, not a guarded metric"
            )
            continue
        if key not in baseline or key not in fresh:
            print(f"  SKIP {key}: missing from {'baseline' if key not in baseline else 'fresh'}")
            continue
        base, now = float(baseline[key]), float(fresh[key])
        if base <= 0:
            print(f"  SKIP {key}: non-positive baseline {base}")
            continue
        ratio = now / base
        if key in LOWER_IS_BETTER_KEYS:
            verdict = "OK" if ratio <= 1.0 + args.tolerance else "FAIL"
            direction = "(lower is better)"
        else:
            verdict = "OK" if ratio >= 1.0 - args.tolerance else "FAIL"
            direction = ""
        failed |= verdict == "FAIL"
        compared += 1
        print(f"  {verdict:4} {key}: baseline {base:.6g} -> fresh {now:.6g} ({ratio:.2f}x){direction}")

    if compared == 0:
        # All-skip means the gate compared nothing — a renamed metric or a
        # truncated JSON must not read as a pass.
        print("bench regression gate FAILED: no guarded metric present in both files")
        return 1
    if failed:
        print(
            f"bench regression gate FAILED (> {args.tolerance:.0%} drop). If the slowdown is\n"
            "intentional or the baseline hardware changed, regenerate BENCH_sweep.json with\n"
            "a Release build of bench_sweep and commit it alongside the change."
        )
        return 1
    print("bench regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
