#!/usr/bin/env python3
"""End-to-end benchmark: lang/ source -> verified derivation -> KS
selection -> emit_c -> host cc -> dlopen -> run.

    python3 perfbench/run.py --workload lu-nopiv --seed 1 --seconds 20 --trace 0

Run from the repository root.  The first run builds the repository's
libraries and the driver (perfbench/src/blkbench.cpp) into .bench_build/.
A run repeats whole rounds until --seconds have passed.  A round is:

  1. a fresh `blkbench compile` process with an empty private kernel cache
     times the compile (the metric compile_s) while this script reads the
     process's peak resident memory (compile_peak_mb);
  2. a `blkbench run` process loads that kernel, builds the Point kernel
     through the same native path, reproduces the sweep's L1 counts with
     its own LRU simulator, and times Point and derived kernels in
     alternating pairs, checking each output.

setup_s is the set-up before the first round's timed operations: this
script's start up to the first compile's spawn, the compile process's own
start-up up to its timed section, and the run process's start-up and
kernel loading (including the Point kernel's build) up to its first timed
call.  The build check is not part of it.

With --trace 1 each round also runs the layer-by-layer compile and the
run prints the per-layer metrics instead of the end-to-end ones.  The last
line of stdout is the result object; progress goes to stderr.
"""

import time

T_IMPORT = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BIN = os.path.join(BUILD, "blkbench")
CHILD_TIMEOUT_S = 150
POLL_S = 0.02  # peak-memory polling interval of a running child

# Kernel pairs per round, and whether the pipeline has a selectblock
# stage (which adds the tolerance check and the sweep reproduction).
WORKLOADS = {
    "lu-nopiv": {"pairs": 8, "selects": True},
    "lu-pivot": {"pairs": 14, "selects": True},
    "conv": {"pairs": 10, "selects": False},
}
TOLERANCE_OP = "ks-tolerance"

# Per-layer metrics: name -> unit.  Timed from outside each layer's public
# functions by blkbench; 0 where the layer does not run on the workload.
LAYER_UNITS = {
    "lang.parse_s": "s",
    "pm.select_s": "s",
    "pm.derive_s": "s",
    "verify.validate_s": "s",
    "analysis.builds": "count",
    "analysis.hits": "count",
    "ir.stmts": "count",
    "model.candidates": "count",
    "model.chosen_over_best": "ratio",
    "trace.acquire_s": "s",
    "trace.records": "count",
    "trace.encoded_bytes": "bytes",
    "trace.replay_s": "s",
    "cachesim.l1_misses": "count",
    "codegen.emit_s": "s",
    "codegen.c_bytes": "bytes",
    "native.cc_s": "s",
    "native.load_s": "s",
    "native.run_s": "s",
    "native.point_run_s": "s",
    "bench.traced_compile_s": "s",
    "bench.trace_overhead": "ratio",
    "bench.layer_gap": "ratio",
}


def process_start():
    """Monotonic-clock time at which this process started (falls back to
    the time this module was imported)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0 <= age < 60:
            return time.monotonic() - age
    except (OSError, ValueError, IndexError):
        pass
    return T_IMPORT


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(env):
    """Configure once, then bring the driver up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "blkbench"])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")


def child_env(scratch):
    """The children's environment: no inherited BLK_* knobs, temporary
    files of the host compiler kept inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("BLK_")}
    env["TMPDIR"] = scratch
    env["OMP_NUM_THREADS"] = "1"
    return env


def high_water_mb(pid):
    """The process's own peak resident set (VmHWM) in MB, or 0 once it has
    exited."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (OSError, ValueError):
        pass
    return 0.0


def spawn(args, env, scratch):
    """Run blkbench; return (exit code, last stdout line as JSON or None,
    stderr tail, peak resident set of the process itself in MB, monotonic
    time of the spawn).  The peak is polled from /proc while the process
    runs, so it excludes the host compiler processes it starts."""
    with tempfile.TemporaryFile(dir=scratch) as out, \
            tempfile.TemporaryFile(dir=scratch) as err:
        spawned = time.monotonic()
        proc = subprocess.Popen([BIN] + args, cwd=ROOT, env=env,
                                stdout=out, stderr=err)
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        peak_mb = 0.0
        while True:
            pid, status, _ = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            peak_mb = max(peak_mb, high_water_mb(proc.pid))
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(POLL_S)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        lines = out.read().decode(errors="replace").strip().splitlines()
        tail = err.read().decode(errors="replace")[-2000:]
    payload = None
    if lines:
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            payload = None
    return proc.returncode, payload, tail, peak_mb, spawned


def one_round(name, seed, traced, scratch, env, index, ops, samples):
    spec = WORKLOADS[name]
    kdir = os.path.join(scratch, f"kc-{index}")
    os.makedirs(kdir)
    base = ["--workload", name, "--cache-dir", kdir]

    code, comp, tail, peak_mb, _ = spawn(["compile"] + base, env, scratch)
    ok = code == 0 and comp is not None and "error" not in comp
    if traced and ok:
        # The layer-by-layer compile gets its own empty cache.
        tdir = os.path.join(scratch, f"kc-{index}-traced")
        os.makedirs(tdir)
        tcode, tcomp, ttail, _, _ = spawn(
            ["compile", "--workload", name, "--cache-dir", tdir, "--traced"],
            env, scratch)
        shutil.rmtree(tdir, ignore_errors=True)
        if tcode == 0 and tcomp is not None and "error" not in tcomp:
            samples["traced"].append(tcomp)
            # The printed layer times against this round's untraced
            # compile: a layer left unmeasured or counted twice shows.
            samples["gaps"].append(abs(tcomp["layers_s"] - comp["compile_s"])
                                   / comp["compile_s"])
        else:
            ok, tail = False, ttail
    ops.record("compile", ok, tail.strip()[-300:])
    if ok:
        samples["compile_s"].append(comp["compile_s"])
        samples["peak_mb"].append(peak_mb)
        samples["compile"].append(comp)
    if spec["selects"]:
        ops.record(TOLERANCE_OP, ok and comp.get("tolerance_ok", False),
                   "chosen KS misses the swept optimum by more than 10%")

    expected = (1 if spec["selects"] else 0) + 2 * spec["pairs"]
    if ok:
        args = ["run"] + base + ["--seed", str(seed),
                                 "--pairs", str(spec["pairs"])]
        code, res, tail, _, run_spawned = spawn(
            args + (["--traced"] if traced else []), env, scratch)
    if ok and code == 0 and res is not None and "error" not in res \
            and res["attempted"] == expected:
        ops.record_many("run", res["attempted"], res["failed"],
                        res.get("errors", []))
        samples["flops"] = res["flops"]
        samples["point_s"].extend(res["point_s"])
        samples["derived_s"].extend(res["derived_s"])
        samples["run"].append(res)
        if index == 0:
            samples["setup_marks"] = (comp["started_mono"], run_spawned,
                                      res["ready_mono"])
    else:
        detail = (res or {}).get("error", tail.strip()[-300:]) if ok \
            else "compile failed"
        ops.record_many("run", expected, expected, [f"run: {detail}"])
    shutil.rmtree(kdir, ignore_errors=True)


def median_of(rows, key, default=0.0):
    values = [r[key] for r in rows if r.get(key) is not None]
    return benchlib.median(values) if values else default


def setup_seconds(samples, started, build_s):
    """The first round's set-up, from this process's start, without the
    build check (see the module docstring)."""
    compile_t0, run_spawned, run_ready = samples["setup_marks"]
    return (compile_t0 - started - build_s) + (run_ready - run_spawned)


def end_to_end(samples, setup_s):
    flops = samples["flops"]
    m = {}
    # Kernel rates come from the fastest call: the calls rotate over the
    # CPUs, and other load on the host slows some CPUs for minutes at a
    # time.  A compile is one process on whatever CPUs it gets, so its
    # statistic is the median of the run's compiles (see README.md).
    m["compile_s"] = (benchlib.median(samples["compile_s"]), "s")
    m["kernel_gflops"] = (flops / min(samples["derived_s"]) / 1e9, "GFLOP/s")
    m["point_gflops"] = (flops / min(samples["point_s"]) / 1e9, "GFLOP/s")
    m["compile_peak_mb"] = (benchlib.median(samples["peak_mb"]), "MB")
    m["setup_s"] = (setup_s, "s")
    return m


def per_layer(samples):
    traced, comp, run = samples["traced"], samples["compile"], samples["run"]
    v = {}
    for key in ("lang.parse_s", "pm.select_s", "pm.derive_s",
                "verify.validate_s", "codegen.emit_s", "native.cc_s",
                "native.load_s"):
        v[key] = median_of(traced, key)
    v["analysis.builds"] = median_of(traced, "analysis_builds")
    v["analysis.hits"] = median_of(traced, "analysis_hits")
    v["ir.stmts"] = median_of(traced, "stmts")
    v["codegen.c_bytes"] = median_of(traced, "c_bytes")
    v["model.candidates"] = median_of(traced, "candidates")
    ratios = [t["chosen_metric"] / t["best_metric"] for t in traced
              if t.get("best_metric")]
    v["model.chosen_over_best"] = benchlib.median(ratios) if ratios else 0.0
    for key in ("trace.acquire_s", "trace.records", "trace.encoded_bytes",
                "trace.replay_s", "cachesim.l1_misses"):
        v[key] = median_of(run, key)
    v["native.run_s"] = min(samples["derived_s"])
    v["native.point_run_s"] = min(samples["point_s"])
    traced_s = median_of(traced, "compile_s")
    v["bench.traced_compile_s"] = traced_s
    v["bench.trace_overhead"] = traced_s / median_of(comp, "compile_s", 1.0)
    gaps = samples["gaps"]
    v["bench.layer_gap"] = benchlib.median(gaps) if gaps else 0.0
    return {k: (v[k], LAYER_UNITS[k]) for k in LAYER_UNITS}


def main():
    started = process_start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("src", "tools/examples"):
        if not os.path.isdir(os.path.join(ROOT, need)):
            raise SystemExit(f"perfbench: {need}/ is missing; run from a "
                             "full checkout of the repository")
    scratch = os.path.join(ROOT, ".bench_build", f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    env = child_env(scratch)
    ops = benchlib.OpCounter(expected=[TOLERANCE_OP])
    samples = {"compile_s": [], "peak_mb": [], "point_s": [],
               "derived_s": [], "compile": [], "traced": [], "run": [],
               "gaps": [], "setup_marks": None, "flops": 0.0}
    rounds = 0
    try:
        build_started = time.monotonic()
        build(env)
        first = time.monotonic()
        build_s = first - build_started
        while True:
            one_round(args.workload, args.seed, bool(args.trace), scratch,
                      env, rounds, ops, samples)
            rounds += 1
            elapsed = time.monotonic() - first
            # Whole rounds only; stop where the run ends nearest --seconds.
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    log(f"{args.workload}: {rounds} rounds, {ops.attempted} operations, "
        f"{ops.failed} failed in {time.monotonic() - first:.1f} s")
    log("samples " + json.dumps({k: samples[k] for k in
                                 ("compile_s", "point_s", "derived_s")}))
    for line in ops.unexpected:
        log(f"FAILED {line}")

    complete = samples["compile_s"] and samples["derived_s"] and \
        samples["setup_marks"] and (samples["traced"] or not args.trace)
    if not complete:
        raise SystemExit("perfbench: no round completed; no metrics")
    metrics = per_layer(samples) if args.trace else \
        end_to_end(samples, setup_seconds(samples, started, build_s))
    print(benchlib.result_line(ops.correct, ops.attempted, ops.failed,
                               metrics))


if __name__ == "__main__":
    main()
