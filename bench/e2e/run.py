#!/usr/bin/env python3
"""End-to-end benchmark of the p2pex simulator.

Builds bench/e2e (a Release build of the library plus e2e_harness) into
.bench_build/e2e, runs the scenario workloads and checks their output
digests. Three ways to run it, all from the repository root:

  python3 bench/e2e/run.py                  # full set: every workload, 5
                                            # interleaved reps + one traced
                                            # pass each; prints every metric
                                            # and writes a results JSON
  python3 bench/e2e/run.py --smoke          # every workload once at 1/20 of
                                            # its simulated time; checks that
                                            # every metric is emitted
  python3 bench/e2e/run.py --workload crowd --seed 3 --seconds 15 --trace 0

The last form measures one batch and prints one JSON line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

A workload is a batch of K replicas of one scenario. Replica i runs with
seed 1000 * seed + i, so batches for different seeds share no replica.
K is fixed by --seconds and the workload's nominal replica time, so both
sides of an A/B comparison run identical inputs. bench/e2e/README.md
explains the workloads and every metric.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"
HARNESS = BUILD / "e2e_harness"
DIGESTS = HERE / "digests.json"
BENCHMARK = ROOT / "BENCHMARK.json"

SEED_STRIDE = 1000     # replica seeds of one batch: stride * seed + [0, K)
PINNED_REPLICAS = 8    # replica digests pinned per workload
TRACED_SHARE = 4       # the traced pass runs K / 4 replicas, at most 8,
TRACED_MAX = 8         # which bounds the trace size and the run time
TIMEOUT_FACTOR = 2     # a harness process may take this many times the
                       # batch's nominal time before it counts as hung
SMOKE_TIME_SCALE = 20  # --smoke divides simulated time by this

# name -> source scenario, size factor, thread count, default seed, extra
# timeline lines, pin key, and nominal seconds per replica (measured on
# the reference machine; only used to pick K).
WORKLOADS = {
    "churn": dict(source="examples/heavy_churn.scn", scale=1, threads=1,
                  seed=137, extra=[], pin="churn", replica_s=0.19),
    "crowd": dict(source="examples/flash_crowd.scn", scale=1, threads=1,
                  seed=71, extra=[], pin="crowd", replica_s=0.33),
    # Same replicas as crowd, fewer of them: its replica digests must
    # equal the matching prefix of crowd's.
    "crowd_t4": dict(source="examples/flash_crowd.scn", scale=1, threads=4,
                     seed=71, extra=[], pin="crowd", replica_s=0.43),
    "discovery": dict(source="examples/dht_discovery.scn", scale=1,
                      threads=1, seed=7070,
                      extra=["at 3000 faults rate=0.002 lookup_loss=0.1 "
                             "duration=1500"],
                      pin="discovery", replica_s=0.22),
    "capacity": dict(source="bench/million_peer.scn", scale=0.05, threads=1,
                     seed=97, extra=[], pin="capacity", replica_s=2.25),
}

class Failure(Exception):
    """A build, harness or output check failed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- inputs ---------------------------------------------------------------

def scaled_count(value, factor):
    return str(max(1, round(int(value) * factor)))


def scaled_time(value, divisor):
    return repr(float(value) / divisor)


def make_scn(name, time_divisor=1):
    """Writes the workload's scenario file and returns its path.

    Multiplies every count=, split= and `set categories` by the size
    factor and appends the extra timeline lines. time_divisor > 1 also
    compresses every time (duration, at, duration=, interval=)."""
    w = WORKLOADS[name]
    src = ROOT / w["source"]
    if not src.is_file():
        raise Failure(f"missing scenario source {w['source']}")
    f = w["scale"]
    lines = []
    for line in src.read_text().splitlines() + w["extra"]:
        line = line.split("#", 1)[0].rstrip()
        if not line:
            continue
        line = re.sub(r"\b(count|split)=(\d+)",
                      lambda m: f"{m[1]}={scaled_count(m[2], f)}", line)
        line = re.sub(r"^set categories (\d+)",
                      lambda m: f"set categories {scaled_count(m[1], f)}",
                      line)
        if time_divisor != 1:
            d = time_divisor
            line = re.sub(r"^(set duration|at) ([\d.]+)",
                          lambda m: f"{m[1]} {scaled_time(m[2], d)}", line)
            line = re.sub(r"\b(duration|interval)=([\d.]+)",
                          lambda m: f"{m[1]}={scaled_time(m[2], d)}", line)
        lines.append(line)
    out = BUILD / "scn" / f"{name}{'' if time_divisor == 1 else '_smoke'}.scn"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return out


def replicas_for(name, seconds, smoke=False):
    if smoke:
        return 1
    return max(1, round(seconds / WORKLOADS[name]["replica_s"]))


def timeout_for(name, seconds):
    return TIMEOUT_FACTOR * max(seconds, WORKLOADS[name]["replica_s"])


# --- build and harness ----------------------------------------------------

def build():
    if not (ROOT / "CMakeLists.txt").is_file():
        raise Failure("no repository checkout around bench/e2e")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", "e2e_harness",
              "-j", jobs]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            log(r.stdout[-4000:])
            raise Failure(f"build step failed: {' '.join(cmd)}")


def harness(scn, first_seed, replicas, threads, timeout, trace_out=None):
    cmd = [str(HARNESS), "--scn", str(scn), "--seed", str(first_seed),
           "--replicas", str(replicas), "--threads", str(threads)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = {k: v for k, v in os.environ.items() if k != "P2PEX_THREADS"}
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=timeout, env=env)
    except subprocess.TimeoutExpired:
        raise Failure(f"harness timed out after {timeout} s: {' '.join(cmd)}")
    if r.returncode != 0:
        raise Failure(f"harness exited {r.returncode}: {r.stderr.strip()}")
    try:
        return json.loads(r.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        raise Failure("harness printed no result")


# --- trace post-processing ------------------------------------------------

def trace_profile(path):
    """Self time per span name, rebuilt by nesting the raw Chrome events
    per thread, and the part of e2e.slice/e2e.finalize time that no
    engine span covers. Times in ns."""
    events = json.loads(Path(path).read_text())["traceEvents"]
    by_tid = {}
    for e in events:
        start = round(e["ts"] * 1000)
        by_tid.setdefault(e["tid"], []).append(
            (start, start + round(e["dur"] * 1000), e["name"]))
    self_ns, total_ns = {}, {}
    run_ns = covered_ns = 0
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # open spans: [end, name, start, child_ns]

        def close(frame):
            end, name, start, child = frame
            dur = end - start
            self_ns[name] = self_ns.get(name, 0) + dur - child
            total_ns[name] = total_ns.get(name, 0) + dur

        for start, end, name in spans:
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                parent = stack[-1]
                parent[3] += end - start
                if parent[1] in ("e2e.slice", "e2e.finalize"):
                    covered_ns += end - start
            if name in ("e2e.slice", "e2e.finalize"):
                run_ns += end - start
            stack.append([end, name, start, 0])
        while stack:
            close(stack.pop())
    return {"self_ns": self_ns, "total_ns": total_ns, "run_ns": run_ns,
            "unattributed_ns": run_ns - covered_ns}


# --- metrics --------------------------------------------------------------

def end_to_end(rec):
    return {
        "wall_s": rec["wall_ms"] / 1e3,
        "sim_s_per_wall_s":
            rec["replicas"] * rec["sim_duration_s"] / (rec["run_ms"] / 1e3),
        "setup_s": rec["setup_ms_median"] / 1e3,
        "cpu_s": rec["cpu_s"],
        "peak_rss_mb": rec["peak_rss_kb"] / 1024,
    }


def ratio(a, b):
    return a / b if b else 0.0


def per_layer(rec, traced, profile, untraced_ms):
    """Per-layer metrics from the untraced batch `rec` and the traced pass
    `traced` (whose replicas took `untraced_ms` in `rec`). Times are ms
    per replica; counts are batch totals."""
    k, kt = rec["replicas"], traced["replicas"]
    selfs, totals = profile["self_ns"], profile["total_ns"]

    def self_ms(prefix):
        ns = sum(v for n, v in selfs.items() if n.startswith(prefix))
        return ns / 1e6 / kt

    mem_total = sum(rec[f"mem_{p}_bytes"] for p in
                    ("peer", "download", "session", "ring", "graph"))
    patch_ns = selfs.get("snapshot.patch", 0)
    return {
        "scenario.parse_ms": rec["parse_ms"] / k,
        "scenario.actions": rec["actions"],
        "scenario.action_self_ms": self_ms("scenario."),
        "core.ctor_ms": rec["ctor_ms"] / k,
        "core.finalize_ms": rec["finalize_ms"] / k,
        "core.teardown_ms": rec["teardown_ms"] / k,
        "core.slice_ms_p50": rec["slice_ms_p50"],
        "core.slice_ms_p95": rec["slice_ms_p95"],
        "core.drain_self_ms": self_ms("drain.merge"),
        "core.sweep_self_ms": self_ms("sweep."),
        "core.requests_issued": rec["requests_issued"],
        "core.sessions_started": rec["sessions_started"],
        "core.downloads_completed": rec["downloads_completed"],
        "core.rings_formed": rec["rings_formed"],
        "core.ring_attempts": rec["ring_attempts"],
        "core.preemptions": rec["preemptions"],
        "core.ring_accept_ratio": ratio(rec["rings_formed"],
                                        rec["ring_attempts"]),
        "snapshot.patch_ms": patch_ns / 1e6 / kt,
        "snapshot.patches": rec["snapshot_patches"],
        "snapshot.dirty_rows": rec["dirty_rows_patched"],
        "snapshot.patch_us_per_row": ratio(patch_ns / 1e3,
                                           traced["dirty_rows_patched"]),
        "snapshot.rebuild_ms": self_ms("snapshot.rebuild"),
        "snapshot.rebuilds": rec["snapshot_rebuilds"],
        "finder.searches": rec["finder_searches"],
        "finder.nodes_visited": rec["finder_nodes_visited"],
        "finder.candidates": rec["finder_candidates"],
        "finder.candidate_ratio": ratio(rec["finder_candidates"],
                                        rec["finder_discovered"]),
        "parallel.passes": rec["spec_passes"],
        "parallel.speculated": rec["spec_speculated"],
        "parallel.stale": rec["spec_stale"],
        "parallel.unused": rec["spec_unused"],
        "parallel.consume_ratio": ratio(rec["spec_consumed"],
                                        rec["spec_speculated"]),
        "parallel.speculate_ms":
            totals.get("drain.speculate", 0) / 1e6 / kt,
        "discovery.wire_bytes": rec["lookup_wire_bytes"],
        "discovery.hops": rec["dht_hops"],
        "discovery.gossip_rounds": rec["gossip_rounds"],
        "discovery.misses": rec["lookup_misses"],
        "discovery.stale_served": rec["stale_entries_served"],
        "discovery.hops_per_request": ratio(rec["dht_hops"],
                                            rec["requests_issued"]),
        "fault.crashes": rec["peer_crashes"],
        "fault.sessions_failed": rec["sessions_failed"],
        "fault.retries": rec["transfer_retries"],
        "fault.retry_exhausted": rec["retry_exhausted"],
        "fault.stale_proposals": rec["stale_proposals"],
        "fault.partition_collapses": rec["partition_collapses"],
        "metrics.report_ms": rec["report_ms"] / k,
        "memory.peer_bytes": rec["mem_peer_bytes"],
        "memory.download_bytes": rec["mem_download_bytes"],
        "memory.session_bytes": rec["mem_session_bytes"],
        "memory.ring_bytes": rec["mem_ring_bytes"],
        "memory.graph_bytes": rec["mem_graph_bytes"],
        "memory.bytes_per_peer": mem_total / rec["peers"],
        "trace.spans": traced["trace_spans"],
        "trace.dropped": traced["trace_dropped"],
        "trace.unattributed_share": ratio(profile["unattributed_ns"],
                                          profile["run_ns"]),
        "trace.overhead": traced["run_ms"] / untraced_ms - 1,
    }


# --- one measurement ------------------------------------------------------

def measure(name, seed, seconds, traced, smoke=False):
    """Runs one batch of `name` and its checks. Returns the end-to-end
    metrics, the per-layer metrics (None unless `traced`), the harness
    record, the replica runs attempted and the failed checks. Raises
    Failure when a harness process crashes or hangs."""
    w = WORKLOADS[name]
    scn = make_scn(name, SMOKE_TIME_SCALE if smoke else 1)
    replicas = replicas_for(name, seconds, smoke)
    timeout = timeout_for(name, seconds)
    first = SEED_STRIDE * seed
    rec = harness(scn, first, replicas, w["threads"], timeout)
    digests = rec["replica_digests"]
    attempted = replicas
    problems = []
    if rec["requests_issued"] == 0 or rec["sessions_started"] == 0:
        problems.append("the batch issued no request or started no session")

    # Pinned digests for the workload's own seed. For every seed, the
    # last replica re-run alone in a fresh process on one thread must
    # give the same output: that checks both the thread count and that
    # no state leaks from one replica into the next. (Not unsliced: a
    # single run_to can differ from 200 slices, see README.md.)
    if seed == w["seed"] and not smoke:
        pins = json.loads(DIGESTS.read_text())[w["pin"]]
        for i, (got, want) in enumerate(zip(digests, pins)):
            if got != want:
                problems.append(f"replica {i} digest {got} != pinned {want}")
    ref = harness(scn, first + replicas - 1, 1, 1, timeout)
    attempted += 1
    if ref["replica_digests"][0] != digests[-1]:
        problems.append("the last replica differs from its lone 1-thread "
                        "re-run")

    layers = None
    if traced:
        kt = max(1, min(TRACED_MAX, replicas // TRACED_SHARE))
        with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
            trace_path = Path(tmp) / "trace.json"
            trec = harness(scn, first, kt, w["threads"], timeout,
                           trace_out=trace_path)
            profile = trace_profile(trace_path)
        attempted += kt
        if trec["replica_digests"] != digests[:kt]:
            problems.append("traced replicas differ from untraced ones")
        if trec["trace_dropped"] > 0:
            problems.append(f"trace dropped {trec['trace_dropped']} spans")
        layers = per_layer(rec, trec, profile, sum(rec["replica_run_ms"][:kt]))
    return end_to_end(rec), layers, rec, attempted, problems


# --- modes ----------------------------------------------------------------

def benchmark_spec():
    return json.loads(BENCHMARK.read_text())


def units(section):
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


def driver_mode(args):
    build()
    name = args.workload
    try:
        metrics, layers, _, attempted, problems = measure(
            name, args.seed, args.seconds, traced=bool(args.trace))
    except Failure as e:
        # A crashed or hung harness still counts: every replica run of
        # the batch is attempted and failed, and no metric is measured.
        metrics = layers = None
        attempted = replicas_for(name, args.seconds)
        problems = [str(e)]
    for p in problems:
        log(f"{name}: {p}")
    values = (layers if args.trace else metrics) or {}
    section = "per_layer" if args.trace else "end_to_end"
    print(json.dumps({
        "correct": not problems, "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {n: {"value": values[n], "unit": u}
                    for n, u in units(section).items() if n in values}}))
    return 0


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def summarize(samples, unit_of, spec):
    out = {}
    for n, vals in samples.items():
        q1, med, q3 = quartiles(vals)
        out[n] = dict({"unit": unit_of[n], "median": med, "q1": q1, "q3": q3,
                       "n": len(vals), "samples": vals}, **spec.get(n, {}))
    return out


def machine_info():
    cpu = "unknown"
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    cache = dict(re.findall(r"^(CMAKE_CXX_COMPILER|CMAKE_BUILD_TYPE):\w+=(.*)$",
                            (BUILD / "CMakeCache.txt").read_text(), re.M))
    version = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                              "--version"], stdout=subprocess.PIPE,
                             text=True).stdout.splitlines()[0]
    return {"nproc": os.cpu_count(), "cpu": cpu, "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def new_run():
    return {"e2e": {}, "layers": {}, "digests": set(), "attempted": 0,
            "failed": 0}


def results_doc(runs, meta):
    """The results JSON: per workload, every metric's samples with their
    median and quartiles; end-to-end metrics carry their bound."""
    spec = benchmark_spec()
    e2e_spec = {m["name"]: {k: m[k] for k in ("better", "bound")}
                for m in spec["end_to_end"]}
    e2e_spec["fail_share"] = {"better": "lower", "bound": 0}
    e2e_units = dict(units("end_to_end"), fail_share="fraction")
    layer_units = units("per_layer")
    doc = dict(meta, schema="p2pex.e2e.v1", workloads={})
    missing = []
    for name, r in runs.items():
        e2e = dict(r["e2e"], fail_share=[ratio(r["failed"], r["attempted"])])
        doc["workloads"][name] = {
            "seed": r["seed"], "replicas": r["replicas"],
            "digest": sorted(r["digests"]),
            "attempted": r["attempted"], "failed": r["failed"],
            "end_to_end": summarize(e2e, e2e_units, e2e_spec),
            "per_layer": summarize(r["layers"], layer_units, {}),
        }
        missing += [f"{name}/{n}" for n in list(e2e_spec) + list(layer_units)
                    if n not in e2e and n not in r["layers"]]
    return doc, missing


def full_mode(args):
    build()
    names = [args.workload] if args.workload else list(WORKLOADS)
    smoke = args.smoke
    reps = 1 if smoke else args.reps
    seconds = args.seconds or benchmark_spec()["run_seconds"]
    runs = {name: new_run() for name in names}
    for name in names:
        runs[name]["seed"] = \
            WORKLOADS[name]["seed"] if args.seed is None else args.seed
        runs[name]["replicas"] = replicas_for(name, seconds, smoke)

    # Reps interleave across workloads, so a slow spell on the machine
    # lands on every workload rather than on one. The last rep is also
    # the traced pass.
    for rep in range(reps):
        for name in names:
            r = runs[name]
            log(f"{name}: rep {rep + 1}/{reps}, {r['replicas']} replicas")
            try:
                m, lay, rec, n, problems = measure(
                    name, r["seed"], seconds, traced=rep == reps - 1,
                    smoke=smoke)
            except Failure as e:
                problems, n = [str(e)], r["replicas"]
            else:
                for k, v in m.items():
                    r["e2e"].setdefault(k, []).append(v)
                for k, v in (lay or {}).items():
                    r["layers"].setdefault(k, []).append(v)
                r["digests"].add(rec["digest"])
                r["replica_digests"] = rec["replica_digests"]
            r["attempted"] += n
            if problems:
                r["failed"] += n
                for p in problems:
                    log(f"{name}: {p}")

    for name, r in runs.items():
        if len(r["digests"]) > 1:
            log(f"{name}: reps disagree on the output digest")
            r["failed"] = r["attempted"]
    # crowd_t4 runs the first replicas of crowd's batch (same seeds,
    # fewer of them), so its digests must be a prefix of crowd's.
    if "crowd" in runs and "crowd_t4" in runs:
        t1 = runs["crowd"].get("replica_digests")
        t4 = runs["crowd_t4"].get("replica_digests")
        if not t1 or not t4 or t4 != t1[:len(t4)]:
            log("crowd_t4: output differs from crowd")
            runs["crowd_t4"]["failed"] = runs["crowd_t4"]["attempted"]

    meta = {"seconds": seconds, "reps": reps, "smoke": smoke,
            "machine": machine_info()}
    doc, missing = results_doc(runs, meta)
    print_results(doc)
    out = Path(args.out) if args.out else \
        BUILD / ("smoke.json" if smoke else "results.json")
    write_doc(doc, out)
    if missing:
        log("metrics not emitted: " + ", ".join(missing))
    failed = any(r["failed"] for r in runs.values())
    return 1 if missing or failed else 0


def write_doc(doc, out):
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"results written to {out}")


def merge(paths, out):
    """Pools the samples of several results files (sets of the same
    commit) into one, e.g. the committed baseline."""
    docs = [json.loads(Path(p).read_text()) for p in paths]
    runs = {}
    for doc in docs:
        for name, w in doc["workloads"].items():
            r = runs.setdefault(name, dict(new_run(), seed=w["seed"],
                                           replicas=w["replicas"]))
            if (w["seed"], w["replicas"]) != (r["seed"], r["replicas"]):
                raise Failure(f"{name}: sets ran different inputs")
            for section, key in (("end_to_end", "e2e"), ("per_layer", "layers")):
                for n, m in w[section].items():
                    if n != "fail_share":
                        r[key].setdefault(n, []).extend(m["samples"])
            r["digests"].update(w["digest"])
            r["attempted"] += w["attempted"]
            r["failed"] += w["failed"]
    meta = {k: docs[0][k] for k in ("seconds", "smoke", "machine")}
    meta["reps"] = sum(d["reps"] for d in docs)
    meta["sets"] = len(docs)
    doc, _ = results_doc(runs, meta)
    write_doc(doc, Path(out))
    return 0


def print_results(doc):
    for name, w in doc["workloads"].items():
        print(f"\n== {name}: seed {w['seed']}, {w['replicas']} replicas, "
              f"{w['attempted']} replica runs, {w['failed']} failed")
        for section in ("end_to_end", "per_layer"):
            for n, m in w[section].items():
                print(f"  {n:28s} {m['median']:14.6g} {m['unit']:9s} "
                      f"[{m['q1']:.6g} .. {m['q3']:.6g}] n={m['n']}")


def repin():
    build()
    pins = {}
    for name, w in WORKLOADS.items():
        if w["pin"] not in pins:
            seconds = PINNED_REPLICAS * w["replica_s"]
            rec = harness(make_scn(name), SEED_STRIDE * w["seed"],
                          PINNED_REPLICAS, w["threads"],
                          timeout_for(name, seconds))
            pins[w["pin"]] = rec["replica_digests"]
    DIGESTS.write_text(json.dumps(pins, indent=1) + "\n")
    log(f"pinned digests written to {DIGESTS}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=list(WORKLOADS))
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", help="results JSON path")
    p.add_argument("--merge", nargs="+", metavar="RESULTS",
                   help="pool results files into --out")
    p.add_argument("--repin", action="store_true",
                   help="rewrite digests.json from the default seeds")
    args = p.parse_args()
    try:
        if args.repin:
            return repin()
        if args.merge:
            if not args.out:
                p.error("--merge needs --out")
            return merge(args.merge, args.out)
        if args.trace is not None:
            if not args.workload or args.seed is None or not args.seconds:
                p.error("--trace needs --workload, --seed and --seconds")
            return driver_mode(args)
        return full_mode(args)
    except Failure as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
