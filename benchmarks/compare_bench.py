"""The perf-regression gate: diff a fresh bench run against its baseline.

``benchmarks/BENCH_engine.json`` and ``benchmarks/BENCH_service.json`` are
the committed perf trajectory.  This script compares a fresh ``--json`` run
of the same bench against the committed baseline with a tolerance band:

* a throughput metric that regressed by more than ``--fail`` (default 35%)
  **fails** the gate (exit 1);
* a regression beyond ``--warn`` (default 15%) prints a warning but passes
  — CI runners are noisy, and the wide band is what makes the gate
  enforceable rather than flaky;
* latency metrics are reported for context only — they are far noisier
  than throughput on shared runners and never gate.

When at least one compared metric *improved* beyond the warn band and none
regressed beyond it, ``--update`` rewrites the baseline file in place —
that is how the committed ``BENCH_*.json`` trajectory moves forward: run
the bench, compare with ``--update``, commit the refreshed baseline with
the change that earned it.

Baselines are absolute numbers, so they encode the machine class they were
measured on.  If the CI gate turns red without a code change (a runner
generation swap, not a regression), re-baseline deliberately: take the
``fresh_*.json`` artifact the failing ``bench-regression`` job uploaded,
commit it over the corresponding ``benchmarks/BENCH_*.json``, and say so in
the commit message — the tolerance band absorbs runner *noise*, never a
hardware *migration*.

Usage::

    python benchmarks/bench_service.py --generated 8 --seed 7 --json fresh.json
    python benchmarks/compare_bench.py \\
        --baseline benchmarks/BENCH_service.json --fresh fresh.json \\
        [--fail 0.35] [--warn 0.15] [--update]

The bench kind is read from the reports' ``"bench"`` field; baseline and
fresh run must agree on it.  Exit codes: 0 pass (possibly with warnings),
1 regression beyond the fail band (or mismatched/malformed reports).
"""

import argparse
import json
import sys

#: Gating metrics per bench kind — all higher-is-better throughputs.
#: Latency/context metrics below are printed but never gate.
THROUGHPUT_METRICS = {
    "engine-generated": ("serial_tps", "repeat_tps"),
    "service": ("throughput_rps",),
    "patterns": ("plan_eps", "plan_warm_eps"),
    "patterns-selective": ("join_eps",),
    "storage": ("ingest_dps", "read_dps", "fp_eps"),
}

#: Dotted paths reported for context (no gating): latency percentiles, and
#: the interpreter oracle's throughput (it is off the hot path — slowing it
#: is allowed, silently speeding past the plan path is what parity gates).
CONTEXT_METRICS = {
    "engine-generated": (),
    "service": ("latency_ms.p50", "latency_ms.p99"),
    "patterns": ("interpreter_eps",),
    "patterns-selective": ("interpreter_eps",),
    "storage": ("bytes_per_node",),
}


def dig(report, dotted):
    value = report
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def load_report(path):
    with open(path, "r", encoding="utf-8") as handle:
        report = json.load(handle)
    if not isinstance(report, dict) or "bench" not in report:
        raise ValueError(f"{path}: not a bench report (missing 'bench')")
    return report


def compare(baseline, fresh, fail_band, warn_band):
    """Yields ``(metric, base, new, change, verdict)`` rows; ``change`` is
    the relative movement (positive = improvement for throughputs)."""
    kind = baseline["bench"]
    for metric in THROUGHPUT_METRICS.get(kind, ()):
        base, new = dig(baseline, metric), dig(fresh, metric)
        if base is None or new is None:
            # A metric one side lacks is a schema drift, not a regression:
            # surface it, gate only on what both runs measured.
            yield metric, base, new, None, "missing"
            continue
        if base <= 0:
            yield metric, base, new, None, "unusable-baseline"
            continue
        change = (new - base) / base
        if change < -fail_band:
            verdict = "fail"
        elif change < -warn_band:
            verdict = "warn"
        elif change > warn_band:
            verdict = "improved"
        else:
            verdict = "ok"
        yield metric, base, new, change, verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json baseline")
    parser.add_argument("--fresh", required=True,
                        help="fresh --json run of the same bench")
    parser.add_argument("--fail", type=float, default=0.35,
                        help="relative throughput regression that fails "
                             "the gate (default 0.35)")
    parser.add_argument("--warn", type=float, default=0.15,
                        help="relative regression that warns (default 0.15)")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the baseline with the fresh report "
                             "when every metric improved beyond the warn "
                             "band and none regressed")
    args = parser.parse_args(argv)
    if not 0 < args.warn <= args.fail:
        parser.error("need 0 < --warn <= --fail")

    try:
        baseline = load_report(args.baseline)
        fresh = load_report(args.fresh)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    if baseline["bench"] != fresh["bench"]:
        print(f"FAIL: bench kind mismatch: baseline is "
              f"{baseline['bench']!r}, fresh run is {fresh['bench']!r}",
              file=sys.stderr)
        return 1
    if fresh.get("failures"):
        print(f"FAIL: the fresh run itself reports failures: "
              f"{fresh['failures']}", file=sys.stderr)
        return 1

    kind = baseline["bench"]
    print(f"bench '{kind}': {args.fresh} vs baseline {args.baseline} "
          f"(warn >{args.warn:.0%}, fail >{args.fail:.0%} regression)")
    rows = list(compare(baseline, fresh, args.fail, args.warn))
    if not rows:
        print(f"FAIL: no gating metrics known for bench kind {kind!r}",
              file=sys.stderr)
        return 1

    failures, warnings, improvements = [], [], []
    for metric, base, new, change, verdict in rows:
        if verdict in ("missing", "unusable-baseline"):
            print(f"  {metric:16s}: {verdict} "
                  f"(baseline={base!r}, fresh={new!r}) — not gated")
            warnings.append(metric)
            continue
        arrow = f"{base:12.1f} -> {new:12.1f}  ({change:+7.1%})"
        print(f"  {metric:16s}: {arrow}  [{verdict}]")
        if verdict == "fail":
            failures.append(metric)
        elif verdict == "warn":
            warnings.append(metric)
        elif verdict == "improved":
            improvements.append(metric)
    for metric in CONTEXT_METRICS.get(kind, ()):
        base, new = dig(baseline, metric), dig(fresh, metric)
        if base is not None and new is not None:
            print(f"  {metric:16s}: {base:12.2f} -> {new:12.2f}  "
                  f"(context only, not gated)")

    if failures:
        print(f"FAIL: throughput regressed beyond {args.fail:.0%} on: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    if warnings:
        print(f"WARN: regression beyond {args.warn:.0%} (within the fail "
              f"band) or ungated metric on: {', '.join(warnings)}")
    gated = [row for row in rows if row[4] not in ("missing",
                                                   "unusable-baseline")]
    if (args.update and improvements
            and all(row[4] in ("improved", "ok") for row in gated)):
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(fresh, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"improved on {', '.join(improvements)} with no regression "
              f"beyond the warn band: baseline {args.baseline} refreshed — "
              f"commit it to move the trajectory forward")
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
