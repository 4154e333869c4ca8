#!/usr/bin/env python3
"""perfbench: the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the program under test from source
(Release, into .bench_build/), generates the workload's inputs from the
seed, measures for about S seconds, checks every output, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Every daemon and driver process started here is reaped on every exit
path, including failures and signals.
"""

import argparse
import atexit
import ctypes
import fcntl
import hashlib
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

sys.dont_write_bytecode = True  # write nothing into the benchmark's directory
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import workloads  # noqa: E402

ROOT = os.getcwd()
BENCH_DIR = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), ROOT)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")
TYCOD = os.path.join(BUILD, "tycod")
PBDRIVER = os.path.join(BUILD, "pbdriver")

WORKLOADS = ("vm_batch", "rpc_fleet", "mobility_fleet")

# Offered rates and the capacity ladders (absolute rates, 8 % apart).
RPC_RATE = 10_000
MOB_RATE = 1_500
RPC_LADDER = [round(4_000 * 1.08 ** k, -1) for k in range(57)]    # to ~300k
MOB_LADDER = [round(500 * 1.08 ** k, -1) for k in range(45)]      # to ~15k
STEP_S = 0.2            # seconds of load per ladder attempt
STEP_ATTEMPTS = 4       # a step passes when one attempt meets every bound
SEARCHES = 3            # independent bisections; capacity is their median
STEP_TIMEOUT_MS = 50    # a reply later than this fails the attempt
CAP_P99_US = 5_000      # an attempt passes only with p99 at or under this
PHASE_TIMEOUT_MS = 2_000
SETUP_CYCLES = 4        # load-free fleet set-ups per run, for a steady setup_s
PHASES = 12             # fixed-rate phases per run, each on a fresh fleet
VM_WINDOW = 10          # consecutive vm_batch jobs per window (~0.1 s)

# With four or more CPUs the daemons get one half and the generator the
# other, so neither steals the other's cycles and the generator can
# spin-poll instead of sleeping.
_CPUS = sorted(os.sched_getaffinity(0))
PINNED = len(_CPUS) >= 4
DAEMON_CPUS = set(_CPUS[:len(_CPUS) // 2]) if PINNED else None
GEN_CPUS = set(_CPUS[len(_CPUS) // 2:]) if PINNED else None


class BenchError(Exception):
    """A failure that must not produce a result line."""


# -- processes -------------------------------------------------------------

_PROCS = []
_LIBC = ctypes.CDLL(None, use_errno=True)


def _die_with_parent():
    _LIBC.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def _child_setup(cpus):
    def setup():
        _die_with_parent()
        if cpus:
            os.sched_setaffinity(0, cpus)
    return setup


def reap_all():
    for p in _PROCS:
        if p.poll() is None:
            p.kill()
        try:
            p.wait(timeout=10)
        except subprocess.TimeoutExpired:
            pass


def _on_signal(signum, _frame):
    reap_all()
    os._exit(128 + signum)


class Proc:
    """A child process whose stdout lines are read on a thread."""

    def __init__(self, args, log, stdin=False, cpus=None):
        self.log = open(log, "a")
        self.p = subprocess.Popen(
            args, stdout=subprocess.PIPE, stderr=self.log,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            text=True, bufsize=1, preexec_fn=_child_setup(cpus))
        _PROCS.append(self.p)
        self.lines = queue.Queue()
        threading.Thread(target=self._read, daemon=True).start()

    def _read(self):
        for line in self.p.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, pred, timeout, what):
        deadline = time.monotonic() + timeout
        while True:
            left = deadline - time.monotonic()
            try:
                line = self.lines.get(timeout=max(left, 0.001))
            except queue.Empty:
                raise BenchError("timed out waiting for " + what)
            if line is None:
                raise BenchError("process exited waiting for " + what)
            got = pred(line)
            if got is not None:
                return got

    def stop(self):
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait(timeout=10)
        self.log.close()


def _proc_file(pid, name):
    with open("/proc/%d/%s" % (pid, name)) as f:
        return f.read()


class Daemon(Proc):
    """One tycod hosting one site. The serve/idle/run budgets are sized to
    outlast the whole run (the defaults end a daemon under continuous
    load after 10 s) and still bound an orphan's life."""

    def __init__(self, node, program, seconds, join=None, traced=False):
        budget_ms = str(int((seconds + 120) * 1000))
        args = [TYCOD, "--node", str(node), "--listen", "127.0.0.1:0",
                "--monitor", "0", "--timeout-ms", budget_ms,
                "--serve-ms", budget_ms, "--idle-exit-ms", budget_ms]
        if join:
            args += ["--join", join]
        if traced:
            # The SLO objective is set out of reach: under the default 5 ms
            # objective the flight recorder's promotions of violating
            # traces overload a mobility_fleet daemon at 1 500 rps, and
            # the traced run must measure the layers, not that collapse.
            args += ["--trace", "--slo", "--slo-p99-us", "10000000"]
        super().__init__(args + [program], os.path.join(WORK, "tycod.log"),
                         cpus=DAEMON_CPUS)
        self.node = node
        self.mport = self.expect(
            lambda l: l.rsplit(":", 1)[1] if l.startswith("tycomon listening")
            else None, 20, "tycomon port")
        self.addr = self.expect(
            lambda l: l.rsplit(" ", 1)[1] if " listening on " in l else None,
            20, "tycod listening")

    def get(self, path):
        url = "http://127.0.0.1:%s%s" % (self.mport, path)
        with urllib.request.urlopen(url, timeout=10) as r:
            return json.loads(r.read().decode())

    def cpu_s(self):
        fields = _proc_file(self.p.pid, "stat").rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def mem_kb(self, key):
        for line in _proc_file(self.p.pid, "status").splitlines():
            if line.startswith(key + ":"):
                return int(line.split()[1])
        return 0

    def alive(self):
        return self.p.poll() is None


class Generator(Proc):
    """pbdriver load: one generator thread plus its transport I/O thread,
    one connection per daemon."""

    def __init__(self, join, imports, seed, scenario, applets=(), spans=None):
        args = [PBDRIVER, "load", "--join", join, "--seed", str(seed),
                "--scenario", scenario, "--poll-us", "0" if PINNED else "20"]
        for imp in imports:
            args += ["--import", imp]
        for a in applets:
            args += ["--applet", "%d:%d:%d:%d" % (a["n"], a["c1"], a["c2"], a["m"])]
        if spans:
            args += ["--spans", spans]
        super().__init__(args, os.path.join(WORK, "pbdriver-load.log"), stdin=True,
                         cpus=GEN_CPUS)
        self.event("ready", 30)

    def event(self, name, timeout):
        def pick(line):
            try:
                doc = json.loads(line)
            except ValueError:
                return None
            if doc.get("event") == "error":
                raise BenchError("generator: " + doc.get("error", "?"))
            return doc if doc.get("event") == name else None
        return self.expect(pick, timeout, "generator " + name)

    def command(self, line, name, timeout):
        self.p.stdin.write(line + "\n")
        self.p.stdin.flush()
        return self.event(name, timeout)

    def phase(self, tag, rate, seconds, timeout_ms):
        return self.command("phase %s %s %s %s" % (tag, rate, seconds, timeout_ms),
                            "phase", seconds + timeout_ms / 1000 + 60)

    def quit(self):
        try:
            self.command("quit", "bye", 10)
        except (BenchError, OSError):
            pass
        self.stop()


class Fleet:
    """The daemons of one fleet workload plus the generator; `setup_s`
    runs from the first daemon's launch to the generator's imports
    resolving."""

    def __init__(self, workload, inputs, seed, seconds, traced=False, spans=None):
        t0 = time.monotonic()
        self.daemons, self.gen = [], None
        try:
            if workload == "mobility_fleet":
                d0 = Daemon(0, inputs["code"], seconds, traced=traced)
                self.daemons.append(d0)
                self.daemons.append(Daemon(1, inputs["gw"], seconds, join=d0.addr,
                                           traced=traced))
                self.gen = Generator(d0.addr, ["gw:gw"], seed, "mob",
                                     inputs["applets"], spans)
            else:
                d0 = Daemon(0, inputs["rpc"], seconds, traced=traced)
                self.daemons.append(d0)
                self.gen = Generator(d0.addr, ["echo:svc"], seed, "rpc", (), spans)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - t0

    def snapshot(self, slo=False):
        snap = []
        for d in self.daemons:
            s = dict(metrics=d.get("/metrics.json"), cpu=d.cpu_s(),
                     rss=d.mem_kb("VmRSS"), hwm=d.mem_kb("VmHWM"))
            if slo:
                s["slo"] = d.get("/slo")
            snap.append(s)
        return snap

    def alive(self):
        return all(d.alive() for d in self.daemons)

    def peak_rss_mb(self):
        return sum(d.mem_kb("VmHWM") for d in self.daemons) / 1024.0

    def stop(self):
        if self.gen:
            self.gen.quit()
        for d in self.daemons:
            d.stop()


# -- metric helpers ----------------------------------------------------------

def counter(snap, prefix):
    """Sum of every counter whose name starts with `prefix{` or equals it."""
    total = 0
    for s in snap:
        for name, v in s["metrics"]["counters"].items():
            if name == prefix or name.startswith(prefix + "{"):
                total += v
    return total


def delta(a, b, prefix):
    return counter(b, prefix) - counter(a, prefix)


def hist_delta(a, b, prefix):
    """Bucket bounds and per-bucket count deltas, merged over daemons."""
    bounds, counts = None, None
    for sa, sb in zip(a, b):
        for name, hb in sb["metrics"]["histograms"].items():
            if name != prefix and not name.startswith(prefix + "{"):
                continue
            ha = sa["metrics"]["histograms"].get(name, {"counts": [0] * len(hb["counts"])})
            d = [y - x for x, y in zip(ha["counts"], hb["counts"])]
            if bounds is None:
                bounds, counts = hb["bounds"], d
            else:
                counts = [x + y for x, y in zip(counts, d)]
    return bounds or [], counts or []


def hist_quantile(bounds, counts, q):
    """Quantile of a fixed-bucket histogram, interpolated in its bucket."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank, seen = q * total, 0
    for i, c in enumerate(counts):
        if c and seen + c >= rank:
            lo = bounds[i - 1] if i > 0 else 0.0
            hi = bounds[i] if i < len(bounds) else lo * 2 or 1.0
            return lo + (hi - lo) * (rank - seen) / c
        seen += c
    return float(bounds[-1]) if bounds else 0.0


def reductions(snap):
    return counter(snap, "vm_comm_reductions") + counter(snap, "vm_inst_reductions")


def generator_ok(ph):
    """The generator, not the fleet, must not set the numbers: its own
    send lateness has to be small next to the latency it reports.
    Phases failing this are refused (left out of the latency metrics)."""
    return (ph["late_p50_us"] <= 0.25 * ph["p50_us"]
            and ph["late_p99_us"] <= 0.5 * ph["p99_us"])


# -- build and environment ---------------------------------------------------

def build():
    src_ok = (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
              and os.path.isfile(os.path.join(ROOT, "tools", "tycod.cpp")))
    if not src_ok:
        raise BenchError("no dityco sources under %s (run from the repository root)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    os.makedirs(WORK, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log, "w") as out:
            if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
                subprocess.run(["cmake", "-S", os.path.join(ROOT, BENCH_DIR), "-B", BUILD,
                                "-DCMAKE_BUILD_TYPE=Release"],
                               stdout=out, stderr=subprocess.STDOUT, check=False)
            jobs = str(min(4, os.cpu_count() or 1))
            r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                                "--target", "pbdriver", "tycod"],
                               stdout=out, stderr=subprocess.STDOUT, check=False)
    if r.returncode != 0:
        with open(log) as f:
            sys.stderr.write(f.read()[-4000:])
        raise BenchError("build failed (see %s)" % log)
    info = json.loads(subprocess.run([PBDRIVER, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    if info["build_type"] != "Release":
        raise BenchError("build type %s: perfbench reports from Release builds only"
                         % info["build_type"])
    return info


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, check=False)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "tools", BENCH_DIR):
        for dirpath, dirnames, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def write_inputs(seed):
    """Materialise every seeded input; returns their paths and data."""
    d = os.path.join(WORK, "seed%d" % seed)
    os.makedirs(d, exist_ok=True)

    def put(name, text):
        path = os.path.join(d, name)
        with open(path, "w") as f:
            f.write(text)
        return path

    vm = workloads.vm_batch(seed)
    mob = workloads.mobility_programs(seed)
    return dict(
        vm=put("vm_batch.dtc", vm["batch"]["source"]),
        vm_expect=put("vm_batch.expect", workloads.expect_text(vm["batch"])),
        kernels={k: put("kernel_%s.dtc" % k, p["source"])
                 for k, p in vm["kernels"].items()},
        rpc=put("rpc_echo.dtc", workloads.RPC_PROGRAM),
        code=put("mob_code.dtc", mob["code"]),
        gw=put("mob_gw.dtc", mob["gw"]),
        applets=mob["applets"],
        applet=put("applet.dtc", workloads.applet_probe(seed)),
        reductions_per_job=vm["batch"]["comm"] + vm["batch"]["inst"],
    )


# -- workloads -----------------------------------------------------------------

def run_vm(inputs, seconds, tracing=False, spans=None):
    args = [PBDRIVER, "vm", "--program", inputs["vm"], "--expect", inputs["vm_expect"],
            "--seconds", str(seconds), "--tracing", "1" if tracing else "0"]
    if spans:
        args += ["--spans", spans]
    r = subprocess.run(args, capture_output=True, text=True, timeout=seconds + 120,
                       preexec_fn=_die_with_parent)
    if r.returncode != 0:
        raise BenchError("pbdriver vm: " + r.stderr.strip()[-500:])
    doc = json.loads(r.stdout.strip().splitlines()[-1])
    if doc["failed"]:
        sys.stderr.write("vm_batch: %d job(s) wrong: %s\n" % (doc["failed"], doc["first_error"]))
    return doc


def best_window(values, better=min):
    """The best median over any VM_WINDOW consecutive jobs. A shared host
    runs memory-bound code such as the VM at speeds up to ~2x apart and
    switches between them every few tenths of a second to minutes, so a
    median over a whole run reads whatever share of it the host was
    busy; the least disturbed stretch reads the program."""
    k = min(VM_WINDOW, len(values))
    return better(statistics.median(values[i:i + k]) for i in range(len(values) - k + 1))


def vm_batch_e2e(inputs, seconds):
    doc = run_vm(inputs, seconds)
    jobs = doc["reps"]
    job_us = [(s + r) * 1e6 for s, r in zip(doc["setup_s"], doc["run_s"])]
    ok = doc["failed"] == 0 and doc["reductions_per_rep"] == inputs["reductions_per_job"]
    metrics = dict(
        setup_s=(best_window(doc["setup_s"]), "s", jobs),
        reductions_per_s=(best_window(doc["reductions_per_s"], max), "1/s", jobs),
        p50_us=(best_window(job_us), "us", jobs),
        success_ratio=((jobs - doc["failed"]) / jobs, "ratio", jobs),
        peak_rss_mb=(doc["vm_hwm_kb"] / 1024.0, "MB", 1),
    )
    return ok, jobs, doc["failed"], metrics


def quantile(values, q):
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def step_passes(ph, rate):
    """p99 within the objective, no failures, and no growing backlog:
    outstanding requests and generator lateness stay bounded."""
    bounded = (ph["max_outstanding_second_half"]
               <= 2 * ph["max_outstanding_first_half"] + rate * CAP_P99_US / 1e6
               and ph["late_p99_second_half_us"] <= CAP_P99_US)
    return ph["failed"] == 0 and ph["p99_us"] <= CAP_P99_US and bounded


def probe_step(workload, inputs, seed, seconds, rate):
    """One ladder step on a fresh fleet. Returns (passed, wrong replies)."""
    fleet = Fleet(workload, inputs, seed, seconds)
    wrong = 0
    try:
        fleet.gen.phase("warmup", rate / 2, 0.4, STEP_TIMEOUT_MS)
        for _ in range(STEP_ATTEMPTS):
            ph = fleet.gen.phase("step", rate, STEP_S, STEP_TIMEOUT_MS)
            wrong += ph["wrong"]
            sys.stderr.write("step %7.0f rps: p99 %6.0f us failed %d late_p99 %.0f us "
                             "outstanding %d/%d\n"
                             % (rate, ph["p99_us"], ph["failed"],
                                ph["late_p99_second_half_us"],
                                ph["max_outstanding_first_half"],
                                ph["max_outstanding_second_half"]))
            if step_passes(ph, rate) and fleet.alive():
                return True, wrong
    finally:
        fleet.stop()
    return False, wrong


def bisect(workload, inputs, seed, seconds, deadline):
    """The highest step of the fixed ladder that passes, found by bisection
    (each probe on a fresh fleet). Returns (rate, converged, probes, wrong
    replies); when the time budget runs out first, rate is the highest
    step that passed so far, a lower bound."""
    steps = RPC_LADDER if workload == "rpc_fleet" else MOB_LADDER
    lo, hi, probes, wrong = -1, len(steps) - 1, 0, 0
    while lo < hi:
        if time.monotonic() > deadline:
            sys.stderr.write("capacity: time budget spent mid-search\n")
            return (steps[lo] if lo >= 0 else 0.0), False, probes, wrong
        mid = (lo + hi + 1) // 2
        ok, w = probe_step(workload, inputs, seed + probes, seconds, steps[mid])
        probes += 1
        wrong += w
        if ok:
            lo = mid
        else:
            hi = mid - 1
    return (steps[lo] if lo >= 0 else 0.0), True, probes, wrong


def capacity(workload, inputs, seed, seconds, budget_s):
    """Median capacity over the independent bisections that converged
    within the budget; when none did, the best lower bound any reached.
    Returns (rate, probes, wrong replies)."""
    deadline = time.monotonic() + budget_s
    caps, bounds, probes, wrong = [], [0.0], 0, 0
    for i in range(SEARCHES):
        c, converged, p, w = bisect(workload, inputs, seed + 1000 * (i + 1), seconds,
                                    deadline)
        probes += p
        wrong += w
        (caps if converged else bounds).append(c)
    return (statistics.median(caps) if caps else max(bounds)), probes, wrong


def fixed_phase(workload, inputs, seed, seconds, length):
    """One fleet at the workload's fixed offered rate for `length` s."""
    rate = RPC_RATE if workload == "rpc_fleet" else MOB_RATE
    fleet = Fleet(workload, inputs, seed, seconds)
    try:
        a = fleet.snapshot()
        ph = fleet.gen.phase("fixed", rate, length, PHASE_TIMEOUT_MS)
        b = fleet.snapshot()
        ph.update(alive=fleet.alive(), rss_mb=fleet.peak_rss_mb(),
                  reductions_per_s=(reductions(b) - reductions(a)) / length,
                  setup_s=fleet.setup_s)
    finally:
        fleet.stop()
    return ph


def fleet_e2e(workload, inputs, seed, seconds):
    """PHASES fixed-rate phases splitting the run, each on a fresh fleet.
    p50_us is the lowest median among the valid phases: CPU steal on a
    shared host slows whole phases, and the least disturbed phase is the
    steadiest estimate of what the program does. A phase in which the
    generator fell behind is not valid (it measured the generator). The
    other metrics cover every phase. Extra set-ups (connect and resolve,
    no load) steady setup_s."""
    setups = []
    for i in range(SETUP_CYCLES):
        f = Fleet(workload, inputs, seed + 100 + i, seconds)
        setups.append(f.setup_s)
        f.stop()
    phases = [fixed_phase(workload, inputs, seed + i, seconds, seconds / PHASES)
              for i in range(PHASES)]
    setups += [ph["setup_s"] for ph in phases]
    valid = [ph for ph in phases if generator_ok(ph)]
    sys.stderr.write("phase p50_us: %s (%d of %d valid)\n"
                     % (" ".join("%.1f" % ph["p50_us"] for ph in phases), len(valid),
                        len(phases)))
    attempted = sum(ph["attempted"] for ph in phases)
    failed = sum(ph["failed"] for ph in phases)
    ok = bool(valid) and all(ph["alive"] and ph["wrong"] == 0 and ph["reductions_per_s"] > 0
                             for ph in phases)
    metrics = dict(
        setup_s=(statistics.median(setups), "s", len(setups)),
        reductions_per_s=(statistics.fmean(ph["reductions_per_s"] for ph in phases), "1/s",
                          attempted),
        p50_us=(min(ph["p50_us"] for ph in valid) if valid else 0.0, "us",
                sum(ph["samples"] for ph in valid)),
        success_ratio=((attempted - failed) / attempted if attempted else 0.0, "ratio",
                       attempted),
        peak_rss_mb=(statistics.fmean(ph["rss_mb"] for ph in phases), "MB", len(phases)),
    )
    return ok, attempted, failed, metrics


# -- traced run: per-layer metrics ---------------------------------------------

def run_layers(workload, inputs, seconds, spans):
    compile_files = {"vm_batch": [inputs["vm"]], "rpc_fleet": [inputs["rpc"]],
                     "mobility_fleet": [inputs["code"], inputs["gw"]]}[workload]
    args = [PBDRIVER, "layers", "--seconds", str(seconds), "--vm-program", inputs["vm"],
            "--applet", inputs["applet"], "--spans", spans]
    for f in compile_files:
        args += ["--compile", f]
    for k, path in inputs["kernels"].items():
        args += ["--kernel", "%s=%s" % (k, path)]
    r = subprocess.run(args, capture_output=True, text=True, timeout=seconds + 120,
                       preexec_fn=_die_with_parent)
    if r.returncode != 0:
        raise BenchError("pbdriver layers: " + r.stderr.strip()[-500:])
    return json.loads(r.stdout.strip().splitlines()[-1])


def fleet_layers(workload, inputs, seed, seconds, spans):
    """Per-layer metrics of one traced fleet phase, from the daemons'
    /metrics and /slo deltas and the generator's own measurements."""
    rate = RPC_RATE if workload == "rpc_fleet" else MOB_RATE
    fleet = Fleet(workload, inputs, seed, seconds, traced=True, spans=spans)
    try:
        a = fleet.snapshot(slo=True)
        ph = fleet.gen.phase("traced", rate, seconds, PHASE_TIMEOUT_MS)
        b = fleet.snapshot(slo=True)
        probe = fleet.gen.command("probe 200", "probe", 60)
        alive = fleet.alive()
    finally:
        fleet.stop()
    done = max(ph["ok"], 1)
    calls = delta(a, b, "tcp_writev_calls")
    hits, misses = delta(a, b, "tcp_pool_hits"), delta(a, b, "tcp_pool_misses")
    qb, qc = hist_delta(a, b, "tcp_send_queue_bytes")
    rb, rc = hist_delta(a, b, "tcp_rtt_us")
    stages = {}
    for st in ("enqueue", "remote", "reply", "execute"):
        # Count-weighted over the daemons' SLO ledgers (SHIPM + SHIPO).
        num = den = 0.0
        for s in b:
            h = s["slo"]["stages"][st]
            num += h["p50_us"] * h["count"]
            den += h["count"]
        stages[st] = num / den if den else 0.0
    m = {
        "vm.instr_per_request": (delta(a, b, "vm_instructions") / done, "count"),
        "wire.bytes_per_request": ((delta(a, b, "tcp_bytes_in") + ph["bytes_in"]) / done, "B"),
        "tcp.frames_per_writev": (delta(a, b, "tcp_writev_frames") / calls if calls else 0.0,
                                  "ratio"),
        "tcp.writev_per_request": (calls / done, "count"),
        "tcp.pool_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "tcp.send_queue_bytes_p99": (hist_quantile(qb, qc, 0.99), "B"),
        "tcp.heartbeat_rtt_p50_us": (hist_quantile(rb, rc, 0.5), "us"),
        "tcp.failures": (float(delta(a, b, "tcp_backpressure_waits")
                               + delta(a, b, "tcp_send_timeouts")
                               + delta(a, b, "tcp_frames_dropped")), "count"),
        "ns.lookups_per_request": (delta(a, b, "ns_lookups") / done, "count"),
        "ns.lookup_p50_us": (probe.get("p50_us", 0.0), "us"),
        "proc.cpu_us_per_request": (sum(y["cpu"] - x["cpu"] for x, y in zip(a, b)) * 1e6 / done,
                                    "us"),
        "proc.rss_growth_kb_per_kreq": (sum(y["hwm"] - x["rss"] for x, y in zip(a, b))
                                        / (done / 1000.0), "kB/kreq"),
        "gen.late_p99_us": (ph["late_p99_us"], "us"),
        "gen.p99_drift": (ph["p99_drift"], "ratio"),
    }
    for st, v in stages.items():
        m["site.stage.%s_p50_us" % st] = (v, "us")
    ok = alive and ph["wrong"] == 0 and "error" not in probe
    return ok, ph, m


def traced(workload, inputs, seed, seconds):
    spans = os.path.join(WORK, "spans-%s-seed%d.jsonl" % (workload, seed))
    if os.path.exists(spans):
        os.remove(spans)
    lay = run_layers(workload, inputs, 0.15 * seconds, spans)
    m = {
        "compiler.compile_ms": (lay["compile_ms"], "ms"),
        "vm.instr_per_s": (lay["instr_per_s"], "1/s"),
        "vm.comm_per_s": (lay["comm_per_s"], "1/s"),
        "vm.inst_per_s": (lay["inst_per_s"], "1/s"),
        "vm.new_per_s": (lay["new_per_s"], "1/s"),
        "vm.driver_share": (lay["driver_share"], "ratio"),
        "vm.link_us": (lay["link_us"], "us"),
        "wire.rpc_encode_ns": (lay["rpc_encode_ns"], "ns"),
        "wire.rpc_decode_ns": (lay["rpc_decode_ns"], "ns"),
        "wire.closure_encode_us": (lay["closure_encode_us"], "us"),
        "wire.closure_decode_us": (lay["closure_decode_us"], "us"),
    }
    if workload == "vm_batch":
        # Trace overhead on the workload's main metric, in-process.
        plain = run_vm(inputs, 0.2 * seconds)
        trc = run_vm(inputs, 0.2 * seconds, tracing=True, spans=spans)
        base = best_window(plain["reductions_per_s"], max)
        m["obs.trace_overhead"] = (best_window(trc["reductions_per_s"], max) / base - 1, "ratio")
        job_us = [(s + r) * 1e6 for s, r in zip(plain["setup_s"], plain["run_s"])]
        m["workload.p99_us"] = (quantile(job_us, 0.99), "us")
        m["workload.capacity_rps"] = (1e6 / statistics.median(job_us), "1/s")
        ok = plain["failed"] == 0 and trc["failed"] == 0
        attempted, failed = plain["reps"] + trc["reps"], plain["failed"] + trc["failed"]
        # vm_batch has no wire: its fleet-layer rows come from a short
        # traced rpc_fleet probe, so every traced run reports every row.
        fok, ph, fm = fleet_layers("rpc_fleet", inputs, seed, 0.25 * seconds, spans)
    else:
        plain = fixed_phase(workload, inputs, seed + 7, seconds, 0.2 * seconds)
        cap, _, cap_wrong = capacity(workload, inputs, seed, seconds, 0.4 * seconds)
        m["workload.p99_us"] = (plain["p99_us"], "us")
        m["workload.capacity_rps"] = (float(cap), "1/s")
        fok, ph, fm = fleet_layers(workload, inputs, seed, 0.2 * seconds, spans)
        m["obs.trace_overhead"] = (ph["p50_us"] / plain["p50_us"] - 1
                                   if plain["p50_us"] else 0.0, "ratio")
        ok = plain["wrong"] == 0 and cap_wrong == 0
        attempted, failed = plain["attempted"], plain["failed"] + cap_wrong
    m.update(fm)
    attempted += ph["attempted"]
    failed += ph["failed"]
    metrics = {k: (v, u, 1) for k, (v, u) in m.items()}
    return ok and fok, attempted, failed, metrics


# -- main ----------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    atexit.register(reap_all)
    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, _on_signal)
    try:
        info = build()
        env = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, build_type=info["build_type"],
                   compiler=info["compiler"], commit=source_id(), nproc=os.cpu_count())
        print("# env " + json.dumps(env, sort_keys=True), flush=True)
        inputs = write_inputs(args.seed)
        if args.trace:
            ok, attempted, failed, metrics = traced(args.workload, inputs, args.seed,
                                                    args.seconds)
        elif args.workload == "vm_batch":
            ok, attempted, failed, metrics = vm_batch_e2e(inputs, args.seconds)
        else:
            ok, attempted, failed, metrics = fleet_e2e(args.workload, inputs, args.seed,
                                                       args.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        reap_all()
        return 1
    reap_all()

    for name, (value, unit, samples) in sorted(metrics.items()):
        print("# %-32s %16.6g %-8s samples=%s" % (name, value, unit, samples))
    print("# correct=%s attempted=%d failed=%d" % (ok, attempted, failed))
    print(json.dumps({
        "correct": bool(ok),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
