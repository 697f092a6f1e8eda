#!/usr/bin/env python3
"""Repository benchmark: host cost of regenerating the paper's tables.

    python3 perfbench/run.py --workload sync_lr|async_lr|async_mlp \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (its own CMake project,
Release) into .bench_build/perfbench, runs one workload, checks every
row's modeled outputs against its reference and prints the result as the
last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
See perfbench/README.md for the metrics, the workloads and the references.
"""
import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("sync_lr", "async_lr", "async_mlp")
DATASETS = ("covtype", "w8a", "real-sim", "rcv1", "news")
ARCHS = ("gpu", "cpu-seq", "cpu-par")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "data.generate_s": "s",
    **{f"core.row_s.{d}": "s" for d in DATASETS},
    "sgd.epochs": "count",
    "sgd.epoch_s.p50": "s",
    "sgd.epoch_s.p99": "s",
    **{f"sgd.first_epoch_s.{a}": "s" for a in ARCHS},
    **{f"sgd.epoch_probe_s.{a}": "s" for a in ARCHS},
    "models.dataset_loss_s": "s",
    "linalg.spmv_t_s": "s",
    "linalg.spmv_s": "s",
    "linalg.gemv_t_s": "s",
    "linalg.gemm_s": "s",
    "kernel.dot_ns": "ns",
    "kernel.axpy_ns": "ns",
    "kernel.spmv_row_ns": "ns",
    "kernel.gemm_tile_ns": "ns",
    "parallel.pool.jobs": "count",
    "parallel.pool.chunks": "count",
    "parallel.pool.parks": "count",
    "parallel.pool.wakeups": "count",
    "parallel.pool.queue_wait_ns.p50": "ns",
    "parallel.pool.queue_wait_ns.p99": "ns",
    "parallel.graph.runs": "count",
    "parallel.graph.tasks": "count",
    "parallel.graph.steals": "count",
    "parallel.graph.ready_wait_ns.p50": "ns",
    "asyncsim.update_ns": "ns",
    "asyncsim.updates": "count",
    "asyncsim.write_conflicts": "count",
    "asyncsim.stale_units": "count",
    "gpusim.kernel_launches": "count",
    "gpusim.mem_transactions": "count",
    "gpusim.atomic_conflicts": "count",
    "trace.overhead_s": "s",
    "trace.dropped_spans": "count",
}

# Committed det=on quick baselines of the gated Table II / III benches,
# recorded at seed 42 (bench/results/README.md).
BASELINES = {
    "sync_lr": ROOT / "bench" / "results" / "BENCH_table2_sync.json",
    "async_lr": ROOT / "bench" / "results" / "BENCH_table3_async.json",
}
BASELINE_SEED = 42
AXES = ("sec_per_epoch", "epochs_to_10pct", "epochs_to_1pct", "ttc_10pct",
        "ttc_1pct", "modeled_total_seconds")

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def steal_ticks():
    """Host-wide CPU steal time (USER_HZ ticks): time this machine's
    virtual CPUs waited for a physical one, i.e. load from outside it."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    jobs = str(max(os.cpu_count() or 1, 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = max(deadline - time.monotonic(), 1)
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=left,
                           env=env)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


# ---- references ----------------------------------------------------------

def row_key(row, with_digest):
    """What a reference pins for one row: step size, divergence, the three
    axes and, where the reference recorded it, the loss trajectory."""
    key = {"alpha": row["alpha"], "diverged": row["diverged"],
           "axes": {a: row["axes"][a] for a in AXES}}
    if with_digest:
        key["loss_digest"] = row["loss_digest"]
    return key


def baseline_reference(workload, seed):
    path = BASELINES.get(workload)
    if path is None or seed != BASELINE_SEED:
        return None
    doc = json.loads(path.read_text())
    return {"source": str(path.relative_to(ROOT)), "digest": False,
            "rows": {e["label"]: row_key(e, False) for e in doc["entries"]},
            "sim_counters": None}


def committed_reference(workload, seed):
    path = HERE / "refs" / f"{workload}.json"
    if not path.exists():
        return None
    entry = json.loads(path.read_text()).get(str(seed))
    if entry is None:
        return None
    return {"source": str(path.relative_to(ROOT)), "digest": True,
            "rows": entry["rows"], "sim_counters": entry.get("sim_counters")}


def recorded_path(workload, seed):
    return BUILD / "refs" / f"{workload}-{seed}.json"


def recorded_reference(workload, seed):
    path = recorded_path(workload, seed)
    if not path.exists():
        return None
    entry = json.loads(path.read_text())
    return {"source": str(path.relative_to(ROOT)), "digest": True,
            "rows": entry["rows"], "sim_counters": entry.get("sim_counters")}


def mismatches(rows, ref):
    """Labels of `rows` that threw or differ from `ref` (exact equality)."""
    bad = []
    for row in rows:
        want = ref["rows"].get(row["label"])
        if row["error"] or want is None or \
                row_key(row, ref["digest"]) != want:
            bad.append(row["label"])
    return bad


def perturbed(ref):
    """A copy of `ref` with one row's step size moved by one grid point."""
    rows = copy.deepcopy(ref["rows"])
    first = next(iter(rows))
    rows[first]["alpha"] = rows[first]["alpha"] * 10.0
    return dict(ref, rows=rows)


def check(out, workload, seed, traced):
    """Returns (attempted, failed, correct, notes)."""
    passes = out["passes"]
    refs = [r for r in (baseline_reference(workload, seed),
                        committed_reference(workload, seed),
                        recorded_reference(workload, seed)) if r]
    first = {r["label"]: row_key(r, True) for r in passes[0]["rows"]}
    # Without a reference for this seed, the first pass is recorded as one
    # (below) and every later pass and run is held to it.
    own = {"source": "first pass", "digest": True, "rows": first,
           "sim_counters": None}
    attempted = failed = 0
    notes = []
    for p in passes:
        bad = set()
        for ref in refs + [own]:
            m = mismatches(p["rows"], ref)
            if m:
                notes.append(f"{len(m)} rows differ from {ref['source']}: "
                             f"{', '.join(m[:3])}")
            bad.update(m)
        attempted += len(p["rows"])
        failed += len(bad)

    correct = failed == 0
    expected = {f"{workload.split('_')[1].upper()}/{d}/"
                f"{'sync' if workload == 'sync_lr' else 'async'}/{a}"
                for d in DATASETS for a in ARCHS}
    if {r["label"] for r in passes[0]["rows"]} != expected:
        notes.append("row set differs from the workload's table rows")
        correct = False

    # The gate must be able to fail for the reason it exists: a reference
    # with one perturbed row has to be reported as a mismatch.
    probe = refs[0] if refs else own
    if not mismatches(passes[0]["rows"], perturbed(probe)):
        notes.append("self-check: a perturbed reference went unnoticed")
        correct = False

    if traced:
        sim = out["sim_counters"]
        for ref in refs:
            if ref["sim_counters"] is not None and ref["sim_counters"] != sim:
                notes.append(f"simulated counters differ from {ref['source']}")
                correct = False

    # Record this seed's reference in the checkout when nothing pins its
    # trajectories or (on a traced run) its simulated counters yet.
    has_rows = any(r["digest"] for r in refs)
    has_sim = any(r["sim_counters"] is not None for r in refs)
    if correct and (not has_rows or (traced and not has_sim)):
        path = recorded_path(workload, seed)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"rows": first,
             "sim_counters": out["sim_counters"] if traced else None},
            indent=1, sort_keys=True))
    return attempted, failed, correct, notes


# ---- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    exe = build()
    tag = f"{args.workload}-{args.seed}-{'trace' if args.trace else 'e2e'}"
    out_path = BUILD / "out" / f"{tag}.json"
    out_path.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(exe), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--out={out_path}"]
    if args.trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd.append(f"--spans={BUILD / 'traces' / (tag + '.json')}")

    load_before, steal_before = os.getloadavg(), steal_ticks()
    r = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    load_after, steal = os.getloadavg(), steal_ticks() - steal_before
    if r.returncode != 0:
        raise SystemExit(f"perfbench: driver exited with {r.returncode}")
    out = json.loads(out_path.read_text())

    attempted, failed, correct, notes = check(out, args.workload, args.seed,
                                              bool(args.trace))
    for n in notes:
        log(n)

    if args.trace:
        layers = out["layers"]
        missing = sorted(set(PER_LAYER) - set(layers))
        if missing:
            raise SystemExit(f"perfbench: missing layers {missing}")
        metrics = {k: {"value": layers[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        passes = out["passes"]
        values = {
            "setup_s": statistics.median(out["setup_s"]),
            # The fastest pass is the least disturbed one (perfbench.cpp
            # kMinPasses).
            "wall_s": min(p["wall_s"] for p in passes),
            "cpu_s": min(p["cpu_s"] for p in passes),
            "peak_rss_mb": out["peak_rss_mb"],
            "ok_ratio": 1.0 - failed / attempted,
        }
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END.items()}

    record = {"provenance": dict(out["provenance"],
                                 workload=args.workload, trace=args.trace,
                                 passes=len(out["passes"]),
                                 loadavg_before=load_before,
                                 loadavg_after=load_after,
                                 steal_ticks=steal)}
    with open(BUILD / "runs.jsonl", "a") as f:
        f.write(json.dumps(dict(record, metrics=metrics)) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
