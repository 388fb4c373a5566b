#!/usr/bin/env python3
"""Repository benchmark: the paper's studies timed end to end, with
per-layer numbers from a separate traced run and layer microbenches.

    python3 perfbench/run.py --workload fig5-serial --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a source checkout.  The first run builds the
simulator library and perfbench/vmmx_perf.cc (Release) into
.bench_build/; every run writes its full record (host stamp, samples,
metrics) to .bench_out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json under --trace 0 and its per-layer metrics
under --trace 1.

Workloads (closed loop: one study at a time, each repetition a fresh
process, so the in-RAM trace repository and ru_maxrss start cold):

  fig5-serial      perfbench/specs/fig5.study, the paper's Figure 5 grid
                   (72 points, 24 traces, 3-config groups), serial
                   backend.  Loads trace generation, decode and step; the
                   workload where generator, decoded-tier and streaming
                   changes show.
  ablation-wide    perfbench/specs/ablation_wide.study (60 points, 4
                   traces, 15-config groups), serial backend.  Mostly
                   step + memory system; the memory overrides move the
                   working set relative to the modelled caches.  It is the
                   bypass case for generator changes.
  fig5-procs-warm  the Figure 5 grid on the processes backend with 3
                   workers over a trace store that set-up fills, plus a
                   fresh journal per repetition.  The only workload that
                   runs the store read path, the wire protocol, the
                   journal and worker supervision; it generates nothing.

Seed: --seed feeds the microbench inputs (TraceRepository::app(name,
kind, imageBytes, seed)).  Study specs key traces on
TraceRepository::defaultSeed, so the end-to-end inputs stay fixed at
0xbeef until specs can carry a seed.

Correctness: every point of every repetition is compared, field for
field, with perfbench/golden/*.tsv (the serial executor's results,
recorded once).  A point fails if it mismatches, is quarantined, or
belongs to a repetition that exits nonzero, has abnormal worker exits,
or breaks the trace-repository guard (cold: generations == traces and
no disk loads; warm: disk loads == traces and no generations).  The
goldens pin the model against itself only: it is unvalidated against
hardware, and no error figure is given.

End-to-end metrics (medians over the repetitions of one run; host time):
  wall_s        Study::run() to the last result, trace generation included
  msteps_per_s  simulated record x config steps per host second
  cpu_s         user+sys CPU seconds of the run over every process
  peak_rss_mib  peak resident memory of the largest process
  setup_s       process start to the first runnable unit (spec parse,
                grid expansion, SIMD dispatch, repository construction);
                plus, on fig5-procs-warm, filling the trace store (median
                of three fills)

Per-layer metrics (--trace 1) come from three sources: untraced
repetitions (repository, dist and modelled-machine counters), traced
walks of the executor's units with spans around TraceRepository::app(),
TraceRepository::decoded() and runTraceBatch() (self times, medians over
walks; the last walk's spans land in .bench_out/), and vmmx_perf's
microbenches.  Each walk follows an untraced serial repetition of the
same shape; the walk/repetition wall ratio is harness.reconcile_ratio
and their difference tracing.overhead_s.  Paths a host cannot execute
report -1 for their step microbench.  error_rate (failed / attempted
points) is a per-layer metric because the end-to-end ones must never
read 0; every run also carries it as "failed" / "attempted".
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "vmmx_perf")

WORKLOADS = {
    "fig5-serial": {"spec": "fig5.study", "golden": "fig5.tsv",
                    "backend": "serial"},
    "ablation-wide": {"spec": "ablation_wide.study",
                      "golden": "ablation_wide.tsv", "backend": "serial"},
    "fig5-procs-warm": {"spec": "fig5.study", "golden": "fig5.tsv",
                        "backend": "processes", "processes": 3},
}
MIN_REPS = 3          # repetitions per run, whatever --seconds says
FILLS = 3             # store fills per fig5-procs-warm run (set-up median)
TRACED_PAIRS = 5      # traced walks per --trace 1 run, each after a rep
CHILD_TIMEOUT = 150   # seconds any one child may take
RUN_BUDGET = 170      # seconds a run may take once the build is done


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def clean_env():
    """The environment minus every VMMX_* knob, so no caller setting
    changes the measured configuration."""
    return {k: v for k, v in os.environ.items() if not k.startswith("VMMX_")}


def run_child(argv, timeout=CHILD_TIMEOUT, env=None):
    """Run one child in its own process group, wait for it (and, on
    timeout, kill the whole group, workers included); return
    (returncode, stdout, spawn time in monotonic ns)."""
    t_spawn = time.monotonic_ns()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=env or clean_env(), cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        log(f"timeout after {timeout}s: {' '.join(argv)}")
    if err.strip():
        log(err.rstrip())
    return proc.returncode, out, t_spawn


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


def build():
    """Configure once, then (re)build the library and vmmx_perf."""
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} at {ROOT}: not a source checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "vmmx_perf",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True, cwd=ROOT)
            if r.returncode != 0:
                log(r.stdout[-4000:])
                raise BenchError(f"build step failed: {' '.join(cmd)}")


def host_stamp():
    rc, out, _ = run_child([BINARY, "host"])
    if rc != 0:
        raise BenchError("vmmx_perf host failed")
    stamp = last_json(out)
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True)
        stamp["git_rev"] = rev.stdout.strip() if rev.returncode == 0 \
            else "none"
    except OSError:
        stamp["git_rev"] = "none"
    # Checkouts without git history still get a source identity.
    h = hashlib.sha256()
    paths = sorted(os.path.join(d, n) for base in ("src", "perfbench")
                   for d, _, names in os.walk(os.path.join(ROOT, base))
                   for n in names)
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    stamp["source_sha256"] = h.hexdigest()[:16]
    stamp["comparable"] = bool(stamp["optimized"] and
                               stamp["sanitizer"] == "none")
    return stamp


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, seed, work):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.spec = os.path.join(HERE, "specs", self.wl["spec"])
        self.golden = os.path.join(HERE, "golden", self.wl["golden"])
        with open(self.golden) as f:
            self.points = sum(1 for l in f if l.strip() and l[0] != "#")
        self.warm = self.wl["backend"] == "processes"
        self.store = None
        self.fills = []
        self.attempted = 0
        self.failed = 0
        self.reps = []
        self.journals = 0

    # -- set-up -------------------------------------------------------
    def fill_store(self, times):
        """Fill a fresh trace store @times times; keep the last."""
        for i in range(times):
            store = os.path.join(self.work, f"store{i}")
            rc, out, _ = run_child([BINARY, "fill", self.spec,
                                    "--store", store])
            if rc != 0:
                raise BenchError("store fill failed")
            self.fills.append(last_json(out))
            if self.store:
                shutil.rmtree(self.store, ignore_errors=True)
            self.store = store

    # -- untraced repetitions -----------------------------------------
    def rep(self, backend=None, env=None):
        backend = backend or self.wl["backend"]
        argv = [BINARY, "run", self.spec, "--golden", self.golden,
                "--backend", backend,
                "--expect", "warm" if self.warm else "cold"]
        if backend == "processes":
            self.journals += 1
            argv += ["--processes", str(self.wl["processes"]),
                     "--store", self.store,
                     "--journal", os.path.join(
                         self.work, f"journal{self.journals}.vmjl")]
        rc, out, t_spawn = run_child(argv, env=env)
        self.attempted += self.points
        try:
            r = last_json(out) if rc == 0 else None
        except (BenchError, ValueError):
            r = None
        if r is None:
            log(f"repetition failed (rc={rc})")
            self.failed += self.points
            return None
        # A repetition whose workers died abnormally or whose repository
        # counters break the cold/warm guard fails every point; its
        # timing still stands.
        if r["abnormal_exits"] or not r["guard_ok"]:
            self.failed += self.points
        else:
            self.failed += r["mismatches"] + r["quarantined"]
        r["setup_s"] = (r["t_ready_ns"] - t_spawn) * 1e-9
        return r

    def measure(self, seconds, min_reps, deadline):
        reps = []
        start = time.monotonic()
        while (len(reps) < min_reps or time.monotonic() - start < seconds) \
                and time.monotonic() < deadline:
            r = self.rep()
            if r is not None:
                reps.append(r)
            elif time.monotonic() - start >= seconds:
                break
        if not reps:
            raise BenchError("no successful repetition")
        self.reps += reps
        return reps

    # -- results --------------------------------------------------------
    def end_to_end(self, reps):
        med = lambda key: statistics.median(r[key] for r in reps)
        setup = med("setup_s")
        if self.fills:
            setup += statistics.median(f["fill_s"] for f in self.fills)
        return {
            "wall_s": med("wall_s"),
            "msteps_per_s": statistics.median(
                r["steps"] / r["wall_s"] * 1e-6 for r in reps),
            "cpu_s": med("cpu_s"),
            "peak_rss_mib": med("peak_rss_kib") / 1024.0,
            "setup_s": setup,
        }

    def traced(self):
        """One traced walk; its spans are kept in .bench_out/ (the last
        walk of a run wins)."""
        spans_path = os.path.join(
            OUT, f"{self.name}.seed{self.seed}.spans.json")
        argv = [BINARY, "traced", self.spec, "--golden", self.golden,
                "--spans", spans_path]
        if self.warm:
            argv += ["--store", self.store]
        rc, out, _ = run_child(argv)
        self.attempted += self.points
        if rc != 0:
            self.failed += self.points
            raise BenchError("traced run failed")
        self.failed += last_json(out)["mismatches"]
        with open(spans_path) as f:
            return json.load(f)

    def micro(self, cell_seconds):
        rc, out, _ = run_child([BINARY, "micro", "--seed", str(self.seed),
                                "--cell-seconds", str(cell_seconds)])
        if rc != 0:
            raise BenchError("microbench failed")
        return last_json(out)


def self_times(spans):
    """Per-name self time (span minus the part its children cover; the
    walk is sequential, so children never overlap) and per-unit wall."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    self_s, units = {}, []
    for i, s in enumerate(spans):
        dur = s["end_ns"] - s["start_ns"]
        self_s[s["name"]] = self_s.get(s["name"], 0.0) + \
            (dur - child[i]) * 1e-9
        if s["name"] == "unit":
            units.append(dur * 1e-6)
    # Whatever a unit or the study spends outside the layer calls is
    # harness time.
    self_s["harness"] = sum(self_s.pop(n, 0.0)
                            for n in ("study", "unit", "trace.hit"))
    total = (spans[0]["end_ns"] - spans[0]["start_ns"]) * 1e-9
    return {"self": self_s, "units": units, "total": total}


def per_layer(run, seconds, deadline):
    """Every per-layer metric for one workload (see the module doc)."""
    # The traced walk is serial, so it reconciles against untraced serial
    # repetitions of the same shape -- for the warm workload, the serial
    # backend reading the same store -- run alternately with the walks so
    # host drift hits both sides alike.
    env = None
    if run.warm:
        run.fill_store(1)
        reps = run.measure(seconds / 4, MIN_REPS, deadline)
        env = clean_env()
        env["VMMX_TRACE_STORE"] = run.store
    shape, walks = [], []
    for _ in range(TRACED_PAIRS):
        r = run.rep("serial", env)
        if r is not None:
            shape.append(r)
        walks.append(self_times(run.traced()))
    if not shape:
        raise BenchError("no successful repetition")
    if not run.warm:
        reps = shape
        run.reps += shape

    m = {}
    rep = reps[0]
    for key in ("trace_repo.generations", "trace_repo.disk_loads",
                "trace_repo.decodes", "trace_repo.raw.bytes",
                "trace_repo.decoded.bytes", "dist.groups_run",
                "dist.steals", "dist.respawns", "dist.retries",
                "sim.cycles", "sim.insts", "sim.mispredicts",
                "sim.rename_stall.regs", "sim.rename_stall.rob",
                "sim.rename_stall.iq", "mem.l1.miss_ratio",
                "mem.l2.miss_ratio", "mem.vec_accesses",
                "mem.coh_invalidations"):
        m[key] = rep[key]
    lookups = rep["trace_repo.decoded_hits"] + rep["trace_repo.decodes"]
    m["trace_repo.decoded.reuse_ratio"] = \
        rep["trace_repo.decoded_hits"] / lookups if lookups else 0.0
    m["sim.steps"] = rep["steps"]
    m["dist.cpu_util"] = statistics.median(
        r["cpu_s"] / (r["wall_s"] * r["processes"]) for r in reps)
    m["trace_store.save.s"] = statistics.median(
        f["trace_store.save.s"] for f in run.fills) if run.fills else 0.0

    layer = lambda name: statistics.median(w["self"].get(name, 0.0)
                                           for w in walks)
    m["trace.generate.s"] = layer("trace.generate")
    m["trace_store.load.s"] = layer("trace_store.load")
    m["decode.s"] = layer("decode")
    m["sim.step.s"] = layer("sim.step")
    m["harness.overhead_s"] = layer("harness")
    units = sorted(u for w in walks for u in w["units"])
    m["harness.unit.p50_ms"] = statistics.median(units)
    m["harness.unit.p90_ms"] = statistics.quantiles(
        units, n=10, method="inclusive")[-1]
    m["harness.unit.samples"] = len(units)
    total = statistics.median(w["total"] for w in walks)
    shape_wall = statistics.median(r["wall_s"] for r in shape)
    m["harness.reconcile_ratio"] = total / shape_wall
    m["tracing.overhead_s"] = total - shape_wall

    micro = run.micro(max(0.1, seconds / 60.0))
    for key, value in micro.items():
        if key not in ("mode", "seed"):
            m[key] = value
    m["error_rate"] = run.failed / run.attempted
    return m


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    build()
    deadline = time.monotonic() + RUN_BUDGET
    stamp = host_stamp()
    print("host: " + json.dumps(stamp, sort_keys=True))
    if not stamp["comparable"]:
        print("WARNING: sanitized or non-optimised build; these numbers "
              "must not be compared with real ones")

    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(args.workload, args.seed, work)
    try:
        if args.trace == 0:
            if run.warm:
                run.fill_store(FILLS)
            reps = run.measure(args.seconds, MIN_REPS, deadline)
            values = run.end_to_end(reps)
            table = declared["end_to_end"]
        else:
            values = per_layer(run, args.seconds, deadline)
            table = declared["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [d["name"] for d in table if d["name"] not in values]
    if missing:
        raise BenchError(f"metrics not produced: {missing}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
               for d in table}
    for d in table:
        print(f"{d['name']:34s} {fmt(values[d['name']]):>14s} {d['unit']}")
    print(f"samples: {len(run.reps)} repetitions of {run.points} points; "
          f"failed {run.failed} of {run.attempted} points")
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    with open(os.path.join(OUT, f"{args.workload}.seed{args.seed}."
                           f"trace{args.trace}.json"), "w") as f:
        json.dump({"host": stamp, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "result": result, "repetitions": run.reps,
                   "fills": run.fills}, f, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
