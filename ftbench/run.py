#!/usr/bin/env python3
"""The ftcsn benchmark: one workload, one seed, one result line.

    python3 ftbench/run.py --workload fabric-1M --seed 1 --seconds 50 --trace 0

Run it from the repository root.  It builds ftbench/ftbench.exe with dune,
runs the workload in fresh processes, checks the outputs and prints, as
the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured untraced.  With --trace 1 they are its per-layer metrics: every
workload's layers are timed from outside through their public functions,
inside Ftcsn_obs.Trace spans, and the spans are written as JSONL under
ftbench/out/.  Each run also writes its full record, host included, to
ftbench/out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "ftbench", "ftbench.exe")
OUT = os.path.join(HERE, "out")
# the timed workloads; a traced run also measures delta-1e-6's layers
WORKLOADS = ["fabric-1M", "serve-4k"]
LEDGER_WORKLOADS = WORKLOADS + ["delta-1e-6"]
# after the build, children share one deadline, so a stuck run still
# ends within 180 s
DEADLINE = None

# units of the workload-specific names printed before the result line
NAMED_UNITS = {
    "setup_s": "s", "events_per_sec": "1/s", "sim_time_per_s": "1/s",
    "decisions_per_sec": "1/s", "decision_p50_us": "us", "decision_p99_us": "us",
    "host_kernel_s": "s",
}

# the estimates' check: intervals at this z (99.9%) must overlap the
# reference's; at 95% about one run in sixty would fail by chance
GATE_Z = 3.29


def die(msg):
    print("ftbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read %s: %s" % (path, e))


def build():
    # no shared dune cache: the build writes only inside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./ftbench/ftbench.exe"],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=900)
    if r.returncode != 0 or not os.path.exists(EXE):
        die("build failed")


def child(*args):
    """Run ftbench.exe in a fresh process and return its JSON output."""
    try:
        r = subprocess.run([EXE, *map(str, args)], cwd=ROOT, capture_output=True,
                           text=True, timeout=max(1, DEADLINE - time.monotonic()))
    except subprocess.TimeoutExpired:
        die("timeout: ftbench.exe %s" % " ".join(map(str, args)))
    if r.returncode != 0:
        die("ftbench.exe %s failed:\n%s" % (" ".join(map(str, args)), r.stderr))
    return json.loads(r.stdout.strip().splitlines()[-1])


def host_record():
    h = child("host")
    h["nproc"] = len(os.sched_getaffinity(0))
    try:
        h["commit"] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        h["commit"] = None
    # a checkout without git still identifies its code by content
    sha = hashlib.sha256()
    for top in ("lib", "ftbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "out")
            for f in sorted(files):
                if f.endswith((".ml", ".mli", ".json")) or f in ("dune", "run.py"):
                    p = os.path.join(d, f)
                    sha.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as fh:
                        sha.update(fh.read())
    h["source_sha256"] = sha.hexdigest()[:16]
    return h


def iqr_share(xs):
    if len(xs) < 2:
        return 0.0
    q = statistics.quantiles(xs, n=4) if len(xs) >= 3 else sorted(xs)[::len(xs) - 1]
    return (q[-1] - q[0]) / statistics.median(xs)


def overlaps(est, ref):
    """Both [mean, lo, hi] intervals widened from 95% to GATE_Z overlap."""
    def widen(m, lo, hi):
        return (m - (m - lo) * GATE_Z / 1.96, m + (hi - m) * GATE_Z / 1.96)
    a, b = widen(*est[:3]), widen(*ref[:3])
    return a[0] <= b[1] and b[0] <= a[1]


def delta_failures(d, refs):
    return [name for name in ("survival", "rare") if not overlaps(d[name], refs[name])]


# ---------- untraced end-to-end run ----------

def measure(workload, seed, seconds, spec):
    """Per-workload end-to-end values, in-run samples, and check counts."""
    # cold set-ups before and after the timed run, so that they sample
    # the host's phases over the whole run, not one moment of it
    k = spec["setup_processes"]
    setups = [child("setup", workload, seed)["setup_s"] for _ in range(k // 2)]
    run = child("run", workload, seed, seconds)
    setups.append(run["setup_s"])
    setups += [child("setup", workload, seed)["setup_s"] for _ in range(k - k // 2)]
    reps = run["reps"]
    digests = {r["digest"] for r in reps}
    named = {"setup_s": setups}
    if workload == "fabric-1M":
        named["events_per_sec"] = [r["events_per_sec"] for r in reps]
        named["sim_time_per_s"] = [r["sim_time_per_s"] for r in reps]
        named["host_kernel_s"] = [r["host_kernel_s"] for r in reps]
        # pooled over the repetitions and scaled to the host's reference
        # speed, as serve-4k's passes are (see serve_measure)
        events = sum(r["stats"]["events"] for r in reps)
        sim_time = sum(r["stats"]["sim_time"] for r in reps)
        raw = sum(r["marginal_s"] for r in reps)
        kref = spec["params"]["host_kernel_ref_s"]
        marginal = sum(r["marginal_s"] * kref / r["host_kernel_s"] for r in reps)
        throughput = events / marginal
        answer = marginal / sim_time
        run["raw"] = {"events_per_sec": events / raw, "sim_time_per_s": sim_time / raw}
        attempted = len(reps)
        failed = sum(1 for r in reps if r["failed_checks"])
        blocking = reps[0]["stats"]["blocking"]
    else:
        timed = reps[1:]  # the first pass warms the process up
        named["decisions_per_sec"] = [r["decisions_per_sec"] for r in timed]
        named["decision_p50_us"] = [r["decision_p50_us"] for r in timed]
        named["decision_p99_us"] = [r["decision_p99_us"] for r in timed]
        named["host_kernel_s"] = run["host_kernel_s"]
        # scaled to the host's reference speed (see serve_measure)
        throughput = run["decisions_per_sec"]
        # the median, not p99: p99 spread more between runs of the same
        # code, so it is the traced run's serve.decision_p99_us
        answer = run["decision_p50_us"] * 1e-6
        attempted = sum(r["requests"] for r in reps)
        failed = sum(r["failed"] for r in reps)
        blocking = reps[0]["blocking"]
    if len(digests) != 1:
        failed = attempted  # same seed, different outputs: nothing holds
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_heap_mb": run["peak_heap_mb"],
        "throughput_per_s": throughput,
        "answer_s": answer,
    }
    record = {"named": named, "digest": sorted(digests), "blocking": blocking,
              "serve_samples": run.get("samples"), "raw": run}
    return metrics, attempted, failed, record


# ---------- traced per-layer run ----------

def ledger(workload, seed):
    """Every workload's layer metrics, from traced runs of each."""
    metrics, attempted, failed = {}, 0, 0
    for w in LEDGER_WORKLOADS:
        r = child("ledger", w, seed, os.path.join(OUT, "trace-%s.jsonl" % w))
        if w == "delta-1e-6":
            refs = load_json(os.path.join(HERE, "workloads.json"))[w]["reference"]
            estimates = r.pop("estimates")
            failed += len(delta_failures(estimates, refs))
            attempted += 2
            print("%-26s %s" % ("digest." + w, estimates["digest"]))
        else:
            failed += r.pop("failed")
            attempted += 1
        metrics.update(r)
    # Cold set-up and the three constructors Traffic.run calls, each in
    # fresh processes of its own, so nothing above warmed them; medians
    # of several.  The set-up layers come from the median set-up process.
    k = load_json(os.path.join(HERE, "workloads.json"))["fabric-1M"]["ledger_cold_processes"]
    setups = sorted((child("setup", "fabric-1M", seed,
                           os.path.join(OUT, "trace-fabric-1M-setup-%d.jsonl" % i))
                     for i in range(k)), key=lambda s: s["spans"]["setup"])
    s = setups[len(setups) // 2]
    ctors = [child("constructors", "fabric-1M",
                   os.path.join(OUT, "trace-fabric-1M-constructors-%d.jsonl" % i))
             for i in range(k)]
    for name in ("routing.router_create_s", "des.shard_partition_s",
                 "reliability.dyn_conn_create_s"):
        metrics[name] = statistics.median(c[name] for c in ctors)
    metrics["networks.build_s"] = s["networks.build_s"]
    metrics["setup.traced_cold_s"] = s["spans"]["setup"]
    metrics["des.bootstrap_residual_s"] = s["spans"]["des.traffic_run_setup"] - (
        metrics["routing.router_create_s"] + metrics["des.shard_partition_s"]
        + metrics["reliability.dyn_conn_create_s"])
    # the residual is what Traffic.run spends beyond its constructors: if
    # the constructors alone took longer than the whole set-up, the split
    # is wrong; the five layers must cover the traced set-up
    five = metrics["networks.build_s"] + metrics["des.bootstrap_residual_s"] + (
        metrics["routing.router_create_s"] + metrics["des.shard_partition_s"]
        + metrics["reliability.dyn_conn_create_s"])
    attempted += 2
    failed += metrics["des.bootstrap_residual_s"] < 0
    failed += abs(five - metrics["setup.traced_cold_s"]) > 0.01 * metrics["setup.traced_cold_s"]
    metrics["trace.overhead_share"] = metrics["trace.overhead_share." + workload]
    return metrics, attempted, failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    spec = load_json(os.path.join(HERE, "workloads.json"))[a.workload]
    build()
    global DEADLINE
    DEADLINE = time.monotonic() + 170
    os.makedirs(OUT, exist_ok=True)
    host = host_record()
    stem = "%s-seed%d-trace%d" % (a.workload, a.seed, a.trace)
    print("ftbench %s seed=%d seconds=%g trace=%d" % (a.workload, a.seed, a.seconds, a.trace))
    print("host " + json.dumps(host))

    if a.trace:
        metrics, attempted, failed = ledger(a.workload, a.seed)
        wanted = bench["per_layer"]
        record = {}
    else:
        metrics, attempted, failed, record = measure(a.workload, a.seed, a.seconds, spec)
        wanted = bench["end_to_end"]
        for name, xs in record["named"].items():
            print("%-26s %14.6g %-4s median of %d, IQR %.1f%%"
                  % (name, statistics.median(xs), NAMED_UNITS[name], len(xs),
                     100 * iqr_share(xs)))
        if record["serve_samples"]:
            print("%-26s %14d      call decisions in the pooled percentiles"
                  % ("decision_samples", record["serve_samples"]))
        for name, v in record["raw"]["raw"].items():
            print("%-26s %14.6g %-4s pooled, not scaled to the reference speed"
                  % (name, v, NAMED_UNITS[name]))
        print("%-26s %14.6g   model statistic, not a failure"
              % ("blocking", record["blocking"]))
        print("%-26s %s" % ("digest", " ".join(record["digest"])))

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die("metrics not measured: " + ", ".join(missing))
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, v in out.items():
        print("%-36s %14.6g %s" % (name, v["value"], v["unit"]))
    print("failed_share %d/%d" % (failed, attempted))
    with open(os.path.join(OUT, stem + ".json"), "w") as f:
        json.dump({"host": host, "workload": a.workload, "seed": a.seed,
                   "metrics": out, "attempted": attempted, "failed": failed,
                   "record": record}, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))


if __name__ == "__main__":
    main()
