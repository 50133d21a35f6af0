"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds result-*.json files written by `perfbench/run.py --out
DIR` (trace 0 runs; traced results are skipped). For every workload and
end-to-end metric of BENCHMARK.json it prints each side's median, its
quartile spread as a share of the median, and the change of AFTER against
BEFORE, oriented so that a positive change is worse. It flags:

- ENV: results whose environment block (Python, numpy, scipy, BLAS and its
  thread count, nproc, CPU, numba) differs from the first BEFORE result;
- REGRESSION: a median worse than BEFORE's by more than the metric's bound;
- DIGEST: eval reports of the same seed whose sha256 differs between sets;
- QUALITY: a median `sw2_ratio` over the seeds both sets ran that is worse
  by more than QUALITY_BOUND. The ratio is deterministic for a seed but
  varies strongly between seeds, so only matched seeds are compared.

Exits 1 when anything is flagged.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
QUALITY_BOUND = 0.25


def load(directory: Path) -> list[dict]:
    results = []
    for path in sorted(directory.glob("result-*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if not result["trace"]:
            results.append(result)
    if not results:
        raise SystemExit(f"no untraced result-*.json files in {directory}")
    return results


def spread(values: list[float]) -> tuple[float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    before, after = (load(Path(a)) for a in argv)
    flagged = 0

    ref_env = before[0]["environment"]
    for side, results in (("before", before), ("after", after)):
        for r in results:
            diff = {k: (ref_env.get(k), v) for k, v in r["environment"].items()
                    if ref_env.get(k) != v}
            if diff:
                flagged += 1
                print(f"ENV {side} {r['workload']} seed {r['seed']}: {diff}")

    digests = {(r["workload"], r["seed"]): r["passes"][0]["digests"] for r in before}
    for r in after:
        ref = digests.get((r["workload"], r["seed"]))
        if ref is not None and ref != r["passes"][0]["digests"]:
            flagged += 1
            print(f"DIGEST {r['workload']} seed {r['seed']}: eval reports differ")

    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        b = [r for r in before if r["workload"] == wl]
        a = [r for r in after if r["workload"] == wl]
        if not b or not a:
            continue
        print(f"== {wl}: {len(b)} before, {len(a)} after")
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1.0 if m["better"] == "lower" else -1.0)
            mb, sb = spread([r["end_to_end"][name] for r in b])
            ma, sa = spread([r["end_to_end"][name] for r in a])
            change = sign * (ma - mb) / mb
            verdict = ""
            if change > m["bound"]:
                verdict = "REGRESSION"
                flagged += 1
            print(f"   {name:28s} {mb:12.5g} (±{sb:.3f}) -> {ma:12.5g} (±{sa:.3f}) "
                  f"{m['unit']:12s} worse by {change:+.3f} (bound {m['bound']}) {verdict}")
        ratio_b = {r["seed"]: r["sw2_ratio"] for r in b if r["sw2_ratio"] is not None}
        pairs = [(ratio_b[r["seed"]], r["sw2_ratio"]) for r in a
                 if r["seed"] in ratio_b and r["sw2_ratio"] is not None]
        if pairs:
            qb = statistics.median(x for x, _ in pairs)
            qa = statistics.median(y for _, y in pairs)
            change = (qa - qb) / qb
            verdict = ""
            if change > QUALITY_BOUND:
                verdict = "QUALITY"
                flagged += 1
            print(f"   {'sw2_ratio':28s} {qb:12.5g} -> {qa:12.5g} over {len(pairs)} matched "
                  f"seeds, worse by {change:+.3f} (bound {QUALITY_BOUND}) {verdict}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
