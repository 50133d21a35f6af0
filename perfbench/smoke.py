"""Smoke test of the benchmark itself, at small sizes.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with the warm-up overrides (run.TINY)
and checks that each end-to-end and per-layer metric named in BENCHMARK.json is
reported with its unit and a finite value, with no failed stage. Then injects
stage failures and checks that they are counted, not raised: eval before any
checkpoint exists, and a training stage whose gen-data never ran, which also
makes the stage depending on it count as failed. Exits 0 when all hold.
"""

import json
import math
import shutil
import sys

import run


def check_result(result: dict, spec: dict) -> None:
    line = run.summary_line(result, spec)
    where = f"{result['workload']} trace={result['trace']}"
    assert line["failed"] == 0 and line["correct"], \
        f"{where}: failed stages {[p['errors'] for p in result['passes']]}"
    key = "per_layer" if result["trace"] else "end_to_end"
    assert list(line["metrics"]) == [m["name"] for m in spec[key]], where
    for m in spec[key]:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} unit {got['unit']}"
        assert got["value"] is not None and math.isfinite(got["value"]), \
            f"{where}: {m['name']} has no finite value"


def check_injected_failures(mods, out) -> None:
    wl = run.tiny(run.WORKLOADS["star-train"])
    by_label = {st.label: st for st in run.STAGES}
    stages = [by_label[k] for k in ("gen-data", "eval-indirect", "train-paired")]
    p = run.run_pass(mods, wl, 0, out / "eval-first", stages=stages)
    assert p["status"] == {"gen-data": "ok", "eval-indirect": "failed",
                           "train-paired": "ok"}, p["status"]
    assert (p["attempted"], p["failed"]) == (3, 1), p
    assert "checkpoint not found" in p["errors"]["eval-indirect"], p["errors"]

    stages = [by_label[k] for k in ("train-paired", "finetune-direct")]
    p = run.run_pass(mods, wl, 0, out / "no-data", stages=stages)
    assert p["status"] == {"train-paired": "failed", "finetune-direct": "skipped"}, p
    assert (p["attempted"], p["failed"]) == (2, 2), p


def main() -> int:
    spec = json.loads(run.BENCH_SPEC.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why, w["name"]
    mods = run.load_library()
    out = run.DEFAULT_OUT / "smoke"
    shutil.rmtree(out, ignore_errors=True)
    for name, workload in run.WORKLOADS.items():
        for trace in (False, True):
            result = run.run_workload(mods, name, run.tiny(workload), seed=0,
                                      seconds=0, trace=trace, out=out)
            check_result(result, spec)
            print(f"ok {name} trace={int(trace)}")
    check_injected_failures(mods, out)
    print("ok injected stage failures are counted")
    shutil.rmtree(out, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
