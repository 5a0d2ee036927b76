#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark results.

    bench/e2e/bench_diff.py A B      A = base (parent), B = change
    bench/e2e/bench_diff.py --self-test

A and B are directories of result files written by taglets_bench
(<workload>-s<seed>.json, and <workload>-s<seed>.layers.json from traced
runs), for example from `bench/e2e/run.sh --runs 10 --out DIR`.

For every workload and end-to-end metric it prints each side's median
and quartiles, the ratio B/A with its base, and a verdict:

  better        B improves on A by more than A's own quartile spread, and
                wins at least 9 in 10 runs paired by seed
  within bound  B is not worse than A by more than the metric's bound
  worse         B is worse than A by more than the bound
  unresolved    a side's quartile spread exceeds the bound, and B does
                not read better than A on every run

Bounds and directions come from BENCHMARK.json. Per-layer medians of
traced runs are printed for attribution, without verdicts. Exits 1 when
any metric is worse, when B's share of failed operations rises above
A's, or when a run of B failed its output checks.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(directory):
    """{(workload, traced): [result, ...]} from one result directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        result = json.loads(path.read_text())
        runs.setdefault((result["workload"], result["trace"]), []).append(result)
    return runs


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(a, b, better, bound):
    """Verdict for one metric; a and b map seed -> value."""
    sign = 1.0 if better == "lower" else -1.0
    a_vals, b_vals = list(a.values()), list(b.values())
    a_q1, a_med, a_q3 = quartiles(a_vals)
    b_med = quartiles(b_vals)[1]
    # Positive when B is worse, as a share of A's median.
    worsening = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    always_better = all(sign * (y - x) < 0 for x in a_vals for y in b_vals)
    if max(spread(a_vals), spread(b_vals)) > bound:
        return "better" if always_better else "unresolved"
    if worsening > bound:
        return "worse"
    paired = [(a[s], b[s]) for s in a if s in b] or [(x, y) for x in a_vals for y in b_vals]
    wins = sum(1 for x, y in paired if sign * (y - x) < 0)
    if -worsening * abs(a_med) > a_q3 - a_q1 and wins >= 0.9 * len(paired):
        return "better"
    return "within bound"


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def fmt(values):
    q1, q2, q3 = quartiles(values)
    return f"{q2:.6g} [{q1:.6g}, {q3:.6g}]"


def provenance(results):
    p = results[0]["provenance"]
    return (f"sha {p['git_sha'][:12]} dirty {p['git_dirty']} {p['build_type']} "
            f"{p['compiler']} nproc {p['nproc']} threads {p['parallel_threads']} "
            f"backend {p['tensor_backend']}")


def compare(a_runs, b_runs, spec, out):
    """Prints the comparison; returns True when B passes."""
    ok = True
    metrics = spec["end_to_end"]
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, traced = key
        a, b = a_runs[key], b_runs[key]
        print(f"\n== {workload}{' (traced)' if traced else ''}: "
              f"A {len(a)} runs, B {len(b)} runs", file=out)
        print(f"   A: {provenance(a)}\n   B: {provenance(b)}", file=out)
        bad = [r["seed"] for r in b if not r["correct"]]
        if bad:
            print(f"   B failed its output checks on seeds {bad}", file=out)
            ok = False
        a_fail, b_fail = failed_share(a), failed_share(b)
        if b_fail > a_fail:
            print(f"   failed share rose: {a_fail:.3g} -> {b_fail:.3g}", file=out)
            ok = False
        names = [m["name"] for m in spec["per_layer"]] if traced else [m["name"] for m in metrics]
        print(f"   {'metric':28} {'A median [q1, q3]':34} {'B median [q1, q3]':34} "
              f"{'B/A':>7}  verdict", file=out)
        for name in names:
            a_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in a if name in r["metrics"]}
            b_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in b if name in r["metrics"]}
            if not a_by_seed or not b_by_seed:
                continue
            a_med = quartiles(list(a_by_seed.values()))[1]
            b_med = quartiles(list(b_by_seed.values()))[1]
            ratio = f"{b_med / a_med:7.4f}" if a_med else "    n/a"
            text = "-"
            if not traced:
                m = next(m for m in metrics if m["name"] == name)
                text = verdict(a_by_seed, b_by_seed, m["better"], m["bound"])
                text += f" (bound {m['bound']:g}, {m['better']} is better)"
                ok = ok and not text.startswith("worse")
            print(f"   {name:28} {fmt(list(a_by_seed.values())):34} "
                  f"{fmt(list(b_by_seed.values())):34} {ratio}  {text}", file=out)
        unit = {m["name"]: m["unit"] for m in metrics + spec["per_layer"]}
        print(f"   (B/A is the ratio of medians; base = A's median, in "
              f"{', '.join(sorted({unit[n] for n in names if n in unit}))})", file=out)
    return ok


def fake_run(workload, seed, metrics, failed=0, correct=True):
    return {"workload": workload, "seed": seed, "trace": False, "correct": correct,
            "attempted": 1000, "failed": failed,
            "provenance": {"git_sha": "0" * 40, "git_dirty": "0", "build_type": "Release",
                           "compiler": "test", "nproc": 4, "parallel_threads": 4,
                           "tensor_backend": "scalar"},
            "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}


def self_test():
    import io

    spec = {"end_to_end": [{"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
                           {"name": "rps", "unit": "1/s", "better": "higher", "bound": 0.1}],
            "per_layer": []}
    base = {s: 100.0 + s for s in range(10)}  # quartile spread ~5%
    checks = [
        ("within bound", verdict(base, {s: v * 1.03 for s, v in base.items()}, "lower", 0.1)),
        ("worse", verdict(base, {s: v * 1.12 for s, v in base.items()}, "lower", 0.1)),
        ("worse", verdict(base, {s: v * 0.88 for s, v in base.items()}, "higher", 0.1)),
        ("better", verdict(base, {s: v * 0.85 for s, v in base.items()}, "lower", 0.1)),
        ("better", verdict(base, {s: v * 1.15 for s, v in base.items()}, "higher", 0.1)),
        ("unresolved", verdict(base, {s: 50.0 + 15 * s for s in range(10)}, "lower", 0.1)),
        # Wide spread, but every run of B beats every run of A.
        ("better", verdict({s: 100.0 + 10 * s for s in range(10)},
                           {s: 10.0 + s for s in range(10)}, "lower", 0.1)),
        # A small gain inside A's own spread is no gain.
        ("within bound", verdict(base, {s: v * 0.99 for s, v in base.items()}, "lower", 0.1)),
        # A median gain beyond A's spread that wins only 8 of 10 pairs.
        ("within bound", verdict(base, {s: 102.0 - s for s in range(10)}, "lower", 0.1)),
    ]
    ok = True
    for want, got in checks:
        if want != got:
            print(f"bench_diff self-test: expected {want}, got {got}")
            ok = False

    def runs(failed, correct=True, scale=1.0):
        return {("w", False): [fake_run("w", s, {"lat": scale * (100 + s), "rps": 500 - s},
                                        failed if s == 0 else 0, correct)
                               for s in range(10)]}

    for want, b, why in [(True, runs(0), "identical sets"),
                         (False, runs(1), "failed share rose"),
                         (False, runs(0, correct=False), "output checks failed"),
                         (False, runs(0, scale=1.3), "a worse metric")]:
        if compare(runs(0), b, spec, io.StringIO()) != want:
            print(f"bench_diff self-test: wrong exit decision for {why}")
            ok = False
    print("bench_diff self-test " + ("passed" if ok else "FAILED"))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?", help="result directory A (parent)")
    parser.add_argument("change", nargs="?", help="result directory B (change)")
    parser.add_argument("--benchmark", default=str(BENCHMARK), help="BENCHMARK.json")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return 0 if self_test() else 1
    if not args.base or not args.change:
        parser.error("give two result directories")
    spec = json.loads(Path(args.benchmark).read_text())
    a_runs, b_runs = load(args.base), load(args.change)
    if not set(a_runs) & set(b_runs):
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    return 0 if compare(a_runs, b_runs, spec, sys.stdout) else 1


if __name__ == "__main__":
    sys.exit(main())
