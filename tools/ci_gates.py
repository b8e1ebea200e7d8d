#!/usr/bin/env python3
"""CI gates over the serving smoke runs' artifacts, runnable locally.

Usage:
    tools/ci_gates.py <gate>

Each gate reads the artifact files its CI step writes into the current
directory, prints the same one-line summary the step always printed, and
exits 1 with the failed assertion's message when a gate does not hold.
Numeric bounds come from tools/ci_thresholds.json beside this script; the
comparison operator of each bound is fixed here, next to its gate.

Gates and the artifacts they read:
    serve-demo       serve_demo.out, replicated.out, composed.out  (serve_demo stdout)
    observability    metrics.prom, traces.json  (serve_demo --metrics-out/--trace-out)
    serving-bench    bench_composed_serving.json, bench_serving.json
    embed-cache      bench_embed_cache.json
    multitenant      bench_multitenant.json
    stream           bench_stream.json
    health           health.json                (health_demo --health-out)
    health-overhead  bench_health.json

Stdlib only — no pip installs on the runner.
"""

import argparse
import collections
import json
import os
import re
import sys


class GateFailure(Exception):
    pass


def check(condition, message):
    if not condition:
        raise GateFailure(message)


def benchmarks(path):
    with open(path) as f:
        return {b["name"]: b for b in json.load(f)["benchmarks"]}


def summary_fields(path, prefix):
    """The key=value fields of the first `prefix` line in `path`."""
    with open(path) as f:
        for line in f:
            if line.startswith(prefix):
                print(line.rstrip())
                return dict(re.findall(r"(\w+)=([0-9.]+)", line))
    raise GateFailure(f"no '{prefix}' line in {path}")


def number(fields, key):
    check(key in fields, f"summary line has no {key}=")
    return float(fields[key])


def gate_serve_demo(t):
    t = t["serve_demo"]
    serving = summary_fields("serve_demo.out", "serving summary:")
    check(number(serving, "QPS") > t["serving_qps_above"], "serving: zero QPS")
    check(number(serving, "p99_ms") > t["serving_p99_ms_above"], "serving: zero p99")
    tenants = summary_fields("serve_demo.out", "multitenant summary:")
    check(number(tenants, "A_shed") == t["multitenant_a_shed_equals"],
          "multitenant: tenant A shed requests")
    check(number(tenants, "A_qps") > t["multitenant_a_qps_above"],
          "multitenant: tenant A served nothing")
    replicated = summary_fields("replicated.out", "replicated summary:")
    check(number(replicated, "QPS") > t["replicated_qps_above"], "replicated: zero QPS")
    check(number(replicated, "shed_rate") < t["replicated_shed_rate_below"],
          "replicated: everything shed")
    composed = summary_fields("composed.out", "composed summary:")
    check(number(composed, "QPS") > t["composed_qps_above"], "composed: zero QPS")
    check(number(composed, "shed_rate") < t["composed_shed_rate_below"],
          "composed: everything shed")
    check(number(composed, "match") == t["composed_match"],
          "composed: answers diverged from the single server")


def gate_observability(t):
    del t  # structural gate: no numeric bounds
    text = open("metrics.prom").read()
    m = re.search(r'^distgnn_router_completed_total (\d+(\.\d+)?)$', text, re.M)
    check(m and float(m.group(1)) > 0, "router completed nothing in the scrape")
    # Every serving stage histogram saw samples: the sharded grid records
    # admit/queue/sample/halo_wait/forward, the registry's leaf servers
    # (single-process classic path) record admit/queue/sample/forward/reply.
    counts = collections.Counter()
    for line in text.splitlines():
        mm = re.match(
            r'distgnn_(sharded|server)_stage_seconds_count\{stage="(\w+)"[^}]*\} (\d+)',
            line)
        if mm:
            counts[(mm.group(1), mm.group(2))] += int(mm.group(3))
    for stage in ("admit", "queue", "sample", "halo_wait", "forward"):
        check(counts[("sharded", stage)] > 0, f"sharded stage {stage} histogram empty")
    for stage in ("admit", "queue", "sample", "forward", "reply"):
        check(counts[("server", stage)] > 0, f"server stage {stage} histogram empty")
    print("stage sample counts:", dict(counts))
    trace = json.load(open("traces.json"))
    spans = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
    check(spans, "no stage spans in the trace dump")
    names = {e["name"] for e in spans}
    check({"queue", "forward"} <= names, f"stage spans missing: {names}")
    print(f"{len(spans)} spans across stages {sorted(names)}")


def gate_serving_bench(t):
    t = t["serving_bench"]
    with open("bench_composed_serving.json") as f:
        runs = json.load(f)["benchmarks"]
    for b in runs:
        print(f"{b['name']}: QPS={b['QPS']:.0f} p99={b['p99_ms']:.3f}ms "
              f"p99.9={b['p99_9_ms']:.3f}ms shed={b['shed_rate']:.3f} match={b['match']:.0f}")
        check(b["match"] == t["composed_match"],
              f"{b['name']}: composed answers diverged from single server")
        check(b["QPS"] > t["composed_qps_above"], f"{b['name']}: zero completed QPS")
        check(b["shed_rate"] < t["composed_shed_rate_below"], f"{b['name']}: everything shed")
    # Tracing-overhead guard: p99 with 1% stage tracing vs tracing off. The
    # target is within 5% locally; the CI gate is looser because a single
    # p99 sample on a shared runner is noisy in both directions.
    ov = benchmarks("bench_serving.json")["BM_TracingOverhead/real_time"]
    print(f"tracing overhead: p99 off={ov['p99_off_ms']:.3f}ms "
          f"on(1%)={ov['p99_on_ms']:.3f}ms ratio={ov['overhead_ratio']:.3f}")
    check(ov["overhead_ratio"] < t["tracing_overhead_ratio_below"],
          "stage tracing at 1% sampling degraded p99 by more than 15%")


def gate_embed_cache(t):
    t = t["embed_cache"]
    runs = benchmarks("bench_embed_cache.json")
    on = runs["BM_EmbedCache_On/real_time_median"]
    off = runs["BM_EmbedCache_Off/real_time_median"]
    sync = runs["BM_ShardedHalo_Sync/real_time_median"]
    pre = runs["BM_ShardedHalo_Prefetch/real_time_median"]
    print(f"hit_rate={on['hit_rate']:.3f} QPS on/off={on['QPS']:.0f}/{off['QPS']:.0f} "
          f"p99 on/off={on['p99_ms']:.3f}/{off['p99_ms']:.3f} ms")
    print(f"halo wait per batch sync/prefetch="
          f"{sync['halo_wait_us_per_batch']:.1f}/{pre['halo_wait_us_per_batch']:.1f} us")
    check(on["hit_rate"] > t["hit_rate_above"], "embedding cache never hit under Zipf load")
    check(on["p99_ms"] <= off["p99_ms"], "cached p99 worse than uncached")
    check(pre["halo_wait_us_per_batch"] < sync["halo_wait_us_per_batch"],
          "prefetch did not overlap the halo fetch")


def gate_multitenant(t):
    t = t["multitenant"]
    runs = benchmarks("bench_multitenant.json")
    solo = runs["BM_Multitenant_SoloA/real_time_median"]
    iso = runs["BM_Multitenant_Isolation/real_time_median"]
    fair = runs["BM_Multitenant_WeightedFair/real_time_median"]
    print(f"A p99 solo/contended={solo['tenant_0_p99_ms']:.3f}/{iso['tenant_0_p99_ms']:.3f} ms "
          f"A shed={iso['tenant_0_shed_rate']:.3f} B shed={iso['tenant_1_shed_rate']:.3f} "
          f"C qps={iso['tenant_2_qps']:.0f} fair_ratio={fair['fair_ratio']:.2f}")
    a_bound = t["a_p99_contended_over_solo_at_most"] * solo["tenant_0_p99_ms"]
    check(iso["tenant_0_p99_ms"] <= a_bound,
          "tenant A p99 degraded more than 1.5x under tenant B's overload")
    check(iso["tenant_0_shed_rate"] == t["a_shed_rate_equals"],
          "tenant A shed requests during B's burst")
    check(iso["tenant_1_shed_rate"] > t["b_shed_rate_above"],
          "tenant B's overload never hit its budget")
    check(iso["tenant_2_qps"] > t["c_qps_above"], "RGCN tenant served nothing")
    check(t["fair_ratio_at_least"] <= fair["fair_ratio"] <= t["fair_ratio_at_most"],
          "weighted-fair shares did not converge toward the 2:1 SLO weights")


def gate_stream(t):
    t = t["stream"]
    runs = benchmarks("bench_stream.json")
    frozen = runs["BM_Stream_FrozenBaseline/real_time_median"]
    poisson = runs["BM_Stream_MixedPoisson/real_time_median"]
    mmpp = runs["BM_Stream_MixedMmpp/real_time_median"]
    ab = runs["BM_Stream_InvalidationTargetedVsFlush/real_time_median"]
    print(f"frozen p99={frozen['p99_ms']:.3f}ms mixed p99={poisson['p99_ms']:.3f}ms "
          f"mmpp QPS={mmpp['QPS']:.0f} match={poisson['match']:.0f}/{mmpp['match']:.0f} "
          f"hit targeted/flush={ab['hit_targeted']:.3f}/{ab['hit_flush']:.3f}")
    # After the delta stream lands under live traffic, the server answers
    # bitwise-equal to a cold server built over the final graph.
    check(poisson["match"] == t["match"], "streamed answers diverged from cold rebuild (poisson)")
    check(mmpp["match"] == t["match"], "streamed answers diverged from cold rebuild (mmpp)")
    # Reads keep completing through bursty MMPP write arrivals.
    check(mmpp["QPS"] > t["mmpp_qps_above"], "read side starved during write bursts")
    check(poisson["final_epoch"] >= poisson["deltas"] > 0, "delta stream did not publish")
    # Targeted invalidation evicts strictly fewer entries than a full flush
    # and preserves >= 5x the post-delta embed hit rate.
    check(poisson["dirty_entries"] < poisson["full_flush_equivalent"],
          "targeted invalidation evicted as much as a full flush")
    check(ab["hit_targeted"] >= t["hit_targeted_over_flush_at_least"] * ab["hit_flush"],
          "targeted invalidation did not preserve 5x the post-delta hit rate")
    # Read tail under the sustained ~100-delta/s stream stays bounded.
    check(poisson["p99_ms"] < t["mixed_p99_over_frozen_below"] * frozen["p99_ms"],
          "mixed read p99 exceeded 1.5x the frozen baseline")


def gate_health(t):
    del t  # structural gate: no numeric bounds
    state = json.load(open("health.json"))
    check(state["ticks"] > 0, "monitor never ticked")
    rules = {e["rule"] for e in state["history"]}
    for rule in ("burn_rate", "barrier_stuck", "epoch_lag"):
        check(rule in rules, f"{rule} missing from transition history")
    check(not state["active"], f"alerts still active at exit: {state['active']}")
    print(f"{state['ticks']} ticks, {len(state['history'])} transitions, all clear")


def gate_health_overhead(t):
    t = t["health_overhead"]
    runs = benchmarks("bench_health.json")
    ov = runs["BM_Health_MixedLoopOverhead/real_time_median"]
    tick = runs["BM_Health_TickCost_median"]
    print(f"monitor overhead: p99 off={ov['p99_off_ms']:.3f}ms "
          f"on={ov['p99_on_ms']:.3f}ms ratio={ov['overhead_ratio']:.3f} | "
          f"tick series={tick['series']:.0f} "
          f"steady allocs={tick['series_allocs_steady']:.0f}")
    check(ov["overhead_ratio"] < t["overhead_ratio_below"],
          "health monitor moved the mixed-loop read p99 by more than 10%")
    check(tick["series_allocs_steady"] == t["series_allocs_steady_equals"],
          "steady-state ticks allocated new series (sample path not alloc-free)")


GATES = {
    "serve-demo": gate_serve_demo,
    "observability": gate_observability,
    "serving-bench": gate_serving_bench,
    "embed-cache": gate_embed_cache,
    "multitenant": gate_multitenant,
    "stream": gate_stream,
    "health": gate_health,
    "health-overhead": gate_health_overhead,
}


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("gate", choices=sorted(GATES))
    args = parser.parse_args(argv)
    with open(os.path.join(here, "ci_thresholds.json")) as f:
        thresholds = json.load(f)
    try:
        GATES[args.gate](thresholds)
    except GateFailure as failure:
        print(f"ci gate {args.gate} FAILED: {failure}", file=sys.stderr)
        return 1
    print(f"ci gate {args.gate}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
