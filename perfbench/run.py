#!/usr/bin/env python3
"""The repository benchmark: whole `ptycho reconstruct` runs.

Run from the repository root:

    python3 perfbench/run.py --workload gd-large-inproc --seed 1 --seconds 30 --trace 0

It builds the `ptycho` CLI and perfbench_tool from source (perfbench/CMakeLists.txt,
into $CARGO_TARGET_DIR or .bench_build), generates the seeded inputs, then runs
the workload's `ptycho reconstruct` invocation in a closed loop (one job at a time,
the next starts when the previous one exits) for --seconds, checking every output.
--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and traced
invocations, reads the program's own spans and counters and times each layer's
public functions through perfbench_tool, and reports the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric glossary.
"""

import argparse
import dataclasses
import filecmp
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

T_START = time.perf_counter()  # reset once the build is done
ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".bench_out")
MIB = 1024.0 * 1024.0

HELD_OUT_SEED = 9001       # kept out of tuning; for confirming later claims
MIN_SAMPLES = 3            # timed invocations per run, even past --seconds
INVOKE_TIMEOUT_S = 30      # one invocation (normally 0.5-2 s); past it, failed
TOOL_TIMEOUT_S = 45        # one perfbench_tool call
SAMPLING_DEADLINE_S = 90   # start no invocation later; the run ends inside 180 s
RESTORE_COST_RTOL = 1e-4   # elastic restore contract
WALL_RESOLUTION_S = 0.01   # the CLI prints its solver wall as %.2f s

STRICT = ["--method", "gd", "--precision", "strict"]
# Output limits per workload (README.md has the measurements): recon_max
# caps recon_error as a share of the vacuum guess's error, seam_max caps
# seam_ratio. Each sits a margin above every seed measured and below what
# one iteration fewer (recon) or HVE's halo seams (seam) give.
WORKLOADS = {
    # The paper's own setup: sequential SGD sweeps dominate.
    "gd-large-inproc": {
        "spec": "large", "recon_max": 0.955, "seam_max": 0.2,
        "args": STRICT + ["--ranks", "4", "--threads", "1", "--mode", "sgd",
                          "--passes", "1", "--iterations", "2"],
    },
    # Four single-thread processes over loopback sockets, 4 snapshots/iter.
    "gd-small-socket-ckpt": {
        "spec": "small", "socket": True, "recon_max": 0.97, "seam_max": 1.45,
        "args": STRICT + ["--launch", "4", "--threads", "1", "--mode", "sgd",
                          "--passes", "4", "--iterations", "2", "--pipeline", "sync",
                          "--checkpoint-every", "1"],
        # Transport parity: the same configuration in-process, same commit.
        "reference": STRICT + ["--ranks", "4", "--threads", "1", "--mode", "sgd",
                               "--passes", "4", "--iterations", "2", "--pipeline", "sync",
                               "--checkpoint-every", "1"],
    },
    # Elastic restore of a 4-rank full-batch snapshot onto 2 ranks x 2 threads.
    "gd-large-restore-fb": {
        "spec": "large", "restore": True, "recon_max": 0.958, "seam_max": 1.05,
        "args": STRICT + ["--ranks", "2", "--threads", "2", "--mode", "full-batch",
                          "--iterations", "4"],
        # Written untimed by the commit under test: snapshot at iteration 2.
        "snapshot": STRICT + ["--ranks", "4", "--threads", "1", "--mode", "full-batch",
                              "--iterations", "2", "--checkpoint-every", "2"],
        # Elastic restore contract: the uninterrupted 4-rank run.
        "reference": STRICT + ["--ranks", "4", "--threads", "1", "--mode", "full-batch",
                               "--iterations", "4"],
    },
}

END_TO_END = {"total_s": "s", "setup_s": "s", "probes_per_s": "probes/s",
              "peak_mem_per_rank_mib": "MiB", "peak_rss_mib": "MiB",
              "recon_error": "ratio", "seam_ratio": "ratio"}

PER_LAYER = {
    "data.load_s": "s", "data.load_mb_per_s": "MB/s",
    "ckpt.write_s": "s", "ckpt.write_mb_per_s": "MB/s", "ckpt.bytes_per_snapshot": "bytes",
    "ckpt.restore_s": "s", "ckpt.restore_mb_per_s": "MB/s",
    "common.crc32_mb_per_s": "MB/s", "common.memcpy_mb_per_s": "MB/s",
    "runtime.msgs_per_iter": "count", "runtime.bytes_per_iter": "bytes",
    "runtime.recv_wait_s": "s", "runtime.isend_s": "s", "runtime.barrier_s": "s",
    "runtime.allreduce_s": "s",
    "core.compute_s": "s", "core.wait_s": "s", "core.comm_s": "s", "core.checkpoint_s": "s",
    "core.imbalance": "ratio",
    "core.sweep_s": "s", "core.sweep_us_per_probe": "us", "core.sweep_probes": "count",
    "physics.grad_us": "us", "physics.forward_us": "us", "physics.cost_us": "us",
    "physics.adjoint_us": "us", "physics.propagate_us": "us",
    "fft.transforms_per_probe": "count", "fft.pair_us": "us", "fft.mb_per_s": "MB/s",
    "backend.cmul_mb_per_s": "MB/s", "backend.butterfly_mb_per_s": "MB/s",
    "partition.extended_area_ratio": "ratio", "partition.replication": "ratio",
    "mem.peak_max_mib": "MiB",
    "obs.trace_overhead": "ratio",
}

# Values that must repeat exactly across every run of one commit; a
# mismatch is nondeterminism, not noise.
EXACT = ["peak_mem_per_rank_mib", "fft.transforms_per_probe", "runtime.msgs_per_iter",
         "runtime.bytes_per_iter", "ckpt.bytes_per_snapshot", "core.sweep_probes",
         "partition.extended_area_ratio", "partition.replication", "mem.peak_max_mib"]

SUMMARY_RE = re.compile(r"cost (\S+) -> (\S+) \(.*\), wall ([0-9.]+) s"
                        r", mean peak mem/rank ([0-9.]+) MiB")
BACKEND_RE = re.compile(r"\(backend (\S+)\)")
RESTORED_RE = re.compile(r"restoring from .* \(step \d+: iteration (\d+), chunk (\d+),")


def log(msg):
    print(f"[perfbench {time.perf_counter() - T_START:7.1f}s] {msg}", file=sys.stderr, flush=True)


def fail_setup(msg):
    log(f"error: {msg}")
    sys.exit(2)


# ---- build ------------------------------------------------------------------

def source_hash():
    """Hash of everything the build reads; identifies the commit under test."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt"), os.path.join(BENCH, "CMakeLists.txt"),
             os.path.join(BENCH, "tool.cpp")]
    for top in ("src", "tools"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def build(src_hash):
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    ptycho = os.path.join(build_dir, "ptycho", "ptycho")
    tool = os.path.join(build_dir, "perfbench_tool")
    stamp = os.path.join(build_dir, "perfbench.stamp")
    try:
        with open(stamp) as f:
            if f.read().strip() == src_hash and os.path.exists(ptycho) and os.path.exists(tool):
                return ptycho, tool
    except OSError:
        pass
    log(f"building into {os.path.relpath(build_dir, ROOT)}")
    os.makedirs(build_dir, exist_ok=True)
    build_log = os.path.join(build_dir, "perfbench-build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(build_log, "w") as logf:
        for cmd in (["cmake", "-S", BENCH, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", build_dir, "-j", jobs]):
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail_setup("build failed")
    with open(stamp, "w") as f:
        f.write(src_hash + "\n")
    return ptycho, tool


def compiler_version():
    try:
        out = subprocess.run(["c++", "--version"], capture_output=True, text=True).stdout
        return out.splitlines()[0].strip() if out else "unknown"
    except OSError:
        return "unknown"


def llc_bytes():
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True)
        return int(out.stdout.strip() or 0)
    except (OSError, ValueError):
        return 0


# ---- running the program ------------------------------------------------------

@dataclasses.dataclass
class Invocation:
    rc: int
    timed_out: bool
    total_s: float
    maxrss_mib: float
    output: str


def invoke(tool, cmd, log_path, cwd):
    """Run one process group to completion through `perfbench_tool run`,
    which reports the wall time and the max RSS of the largest process in it."""
    report = log_path + ".run.json"
    with open(log_path, "wb") as logf:
        proc = subprocess.Popen([tool, "run", report] + cmd, stdout=logf,
                                stderr=subprocess.STDOUT, cwd=cwd, start_new_session=True)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(INVOKE_TIMEOUT_S, kill)
        timer.start()
        _, status, _ = os.wait4(proc.pid, 0)
        timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    try:  # stragglers of a forked launch: none expected, never leave any
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    with open(log_path, errors="replace") as f:
        output = f.read()
    try:
        with open(report) as f:
            measured = json.load(f)
    except (OSError, ValueError):  # killed before it could report
        measured = {"total_s": 0.0, "maxrss_kib": 0}
    return Invocation(proc.returncode, timed_out.is_set(), measured["total_s"],
                      measured["maxrss_kib"] / 1024.0, output)


def port_free(port):
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            s.bind(("127.0.0.1", port))
            return True
        except OSError:
            return False


def port_base(rng, n=4):
    for _ in range(100):
        base = rng.randrange(20000, 60000 - n)
        if all(port_free(base + i) for i in range(n)):
            return base
    return 38400


def run_tool(tool, args, cwd):
    res = subprocess.run([tool] + args, capture_output=True, text=True, cwd=cwd,
                         timeout=TOOL_TIMEOUT_S)
    if res.returncode != 0:
        raise RuntimeError(f"perfbench_tool {args[0]} failed: {res.stderr.strip()[-500:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


class CheckFailed(Exception):
    pass


class Runner:
    """One workload in one working directory: inputs, references, checks."""

    def __init__(self, name, seed, ptycho, tool, work, trace):
        self.name = name
        self.trace = trace
        self.w = WORKLOADS[name]
        self.seed = seed
        self.ptycho = ptycho
        self.tool = tool
        self.work = work
        self.rng = random.Random(seed ^ os.getpid())
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.backend = None

    def path(self, name):
        return os.path.join(self.work, name)

    def reconstruct(self, args, tag, extra=()):
        cmd = [self.ptycho, "reconstruct", self.path("data.ptyd")] + args + list(extra)
        return invoke(self.tool, cmd, self.path(f"{tag}.log"), self.work)

    def prepare(self):
        gen = run_tool(self.tool, ["gen", "--spec", self.w["spec"], "--seed", str(self.seed),
                                   "--out", self.path("data.ptyd"),
                                   "--truth", self.path("truth.bin")], self.work)
        self.probes = int(gen["probes"])
        if "snapshot" in self.w:
            inv = self.reconstruct(self.w["snapshot"], "snapshot",
                                   ["--checkpoint-dir", self.path("snapshot")])
            if inv.rc != 0:
                raise RuntimeError(f"snapshot run failed (rc {inv.rc}):\n{inv.output[-2000:]}")
        if "reference" in self.w:
            extra = ["--save-volume", self.path("reference.bin")]
            # The socket run traces rank 0 only, so its in-process twin's
            # trace supplies the rank imbalance.
            twin_traced = self.trace and self.w.get("socket")
            if self.w.get("socket"):
                extra += ["--checkpoint-dir", self.path("reference-ckpt")]
            if twin_traced:
                extra += ["--trace-out", self.path("reference.trace.json"),
                          "--metrics-out", self.path("reference.metrics.json")]
            inv = self.reconstruct(self.w["reference"], "reference", extra)
            m = SUMMARY_RE.search(inv.output)
            if inv.rc != 0 or not m:
                raise RuntimeError(f"reference run failed (rc {inv.rc}):\n{inv.output[-2000:]}")
            self.reference_cost = float(m.group(2))
            shutil.rmtree(self.path("reference-ckpt"), ignore_errors=True)
            if twin_traced:
                self.twin_imbalance = summarize_trace(
                    self.path("reference.trace.json"), self.path("reference.metrics.json"),
                    self.iterations())["core.imbalance"]

    def ranks(self):
        args = self.w["args"]
        flag = "--launch" if "--launch" in args else "--ranks"
        return args[args.index(flag) + 1]

    def iterations(self):
        args = self.w["args"]
        return int(args[args.index("--iterations") + 1])

    def args(self):
        args = list(self.w["args"])
        if self.w.get("restore"):
            args += ["--restore", self.path("snapshot")]
        if self.w.get("socket"):
            args += ["--port-base", str(port_base(self.rng))]
        if "--checkpoint-every" in args:
            args += ["--checkpoint-dir", self.path("ckpt")]
        return args

    def run_once(self, traced=False):
        """One checked invocation. Returns a sample dict, or None on failure."""
        self.count += 1
        self.attempted += 1
        tag = f"inv{self.count}"
        shutil.rmtree(self.path("ckpt"), ignore_errors=True)
        volume = self.path("volume.bin")
        if os.path.exists(volume):
            os.remove(volume)
        extra = ["--save-volume", volume]
        if traced:
            extra += ["--trace-out", self.path(f"{tag}.trace.json"),
                      "--metrics-out", self.path(f"{tag}.metrics.json")]
        inv = self.reconstruct(self.args(), tag, extra)
        try:
            return self.check(inv, volume)
        except CheckFailed as e:
            self.failed += 1
            log(f"{self.name} invocation {self.count} failed: {e}")
            log(inv.output[-1500:])
            return None

    def check(self, inv, volume):
        """The invocation's sample; raises CheckFailed on a wrong output."""
        if inv.timed_out:
            raise CheckFailed(f"timed out after {INVOKE_TIMEOUT_S} s")
        if inv.rc != 0:
            raise CheckFailed(f"exit code {inv.rc}")
        if inv.total_s <= 0:
            raise CheckFailed("perfbench_tool run left no report")
        m = SUMMARY_RE.search(inv.output)
        if not m:
            raise CheckFailed("no cost/wall/peak-memory summary in the output")
        b = BACKEND_RE.search(inv.output)
        self.backend = b.group(1) if b else self.backend
        wall = float(m.group(3))
        iterations = self.iterations()
        if self.w.get("restore"):
            r = RESTORED_RE.search(inv.output)
            if not r or int(r.group(2)) != 0:
                raise CheckFailed("did not restore from an iteration-boundary snapshot")
            iterations -= int(r.group(1))
        if not os.path.exists(volume):
            raise CheckFailed("no volume saved")
        try:
            q = run_tool(self.tool, ["check", "--dataset", self.path("data.ptyd"),
                                     "--truth", self.path("truth.bin"), "--volume", volume,
                                     "--ranks", self.ranks()], self.work)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            raise CheckFailed(f"output check could not run: {e}") from e
        if q["finite"] != 1:
            raise CheckFailed("non-finite volume")
        recon_limit = self.w["recon_max"] * q["vacuum_error"]
        if not q["recon_error"] <= recon_limit:
            raise CheckFailed(f"recon_error {q['recon_error']} above {recon_limit} "
                              f"({self.w['recon_max']} x the vacuum guess's)")
        if not q["seam_ratio"] <= self.w["seam_max"]:
            raise CheckFailed(f"seam_ratio {q['seam_ratio']} above {self.w['seam_max']}")
        if self.w.get("socket") and not filecmp.cmp(volume, self.path("reference.bin"),
                                                   shallow=False):
            raise CheckFailed("socket volume differs from the in-process run (transport parity)")
        if self.w.get("restore"):
            cost = float(m.group(2))
            rel = abs(cost - self.reference_cost) / abs(self.reference_cost)
            if rel > RESTORE_COST_RTOL:
                raise CheckFailed(f"restored final cost {cost} vs uninterrupted "
                                  f"{self.reference_cost}: relative {rel:.2e}")
        return {
            "total_s": inv.total_s,
            "wall_s": wall,
            "setup_s": inv.total_s - wall,
            "probes_per_s": self.probes * iterations / wall,
            "probe_evals": self.probes * iterations,
            "iterations": iterations,
            "peak_mem_per_rank_mib": float(m.group(4)),
            "peak_rss_mib": inv.maxrss_mib,
            "recon_error": q["recon_error"],
            "seam_ratio": q["seam_ratio"],
            "vacuum_error": q["vacuum_error"],
        }


# ---- trace summaries ----------------------------------------------------------

def summarize_trace(trace_path, metrics_path, iterations):
    """Per-layer numbers from the program's own spans and counters. Times are
    the max over the ranks present in the trace (all of them in-process, rank
    0 alone in a socket run)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    with open(metrics_path) as f:
        metrics = json.load(f)
    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    ranks = {}
    for e in events:
        if e.get("ph") != "X":
            continue
        per = ranks.setdefault(e["pid"], {})
        phase = (e.get("args") or {}).get("phase")
        for key in ((e["name"], phase), (e["name"], "any"), ("phase", phase)):
            per[key] = per.get(key, 0.0) + e["dur"] * 1e-6

    def rank_max(*keys):
        return max((sum(r.get(k, 0.0) for k in keys) for r in ranks.values()), default=0.0)

    def rank_sum(*keys):
        return sum(r.get(k, 0.0) for r in ranks.values() for k in keys)

    # Fig. 7b split per rank, folded the way the solver's PhaseProfiler
    # folds the same spans (compute + update, wait, comm).
    compute = [r.get(("phase", "compute"), 0.0) + r.get(("phase", "update"), 0.0)
               for r in ranks.values()]
    probes = counters.get("sweep_probes_total", 0)
    shard_bytes = counters.get("checkpoint_shard_bytes_total", 0)
    snapshots = counters.get("checkpoint_snapshots_total", 0)
    write_sum = rank_sum(("snapshot-write", "checkpoint"))
    return {
        "ckpt.write_s": rank_max(("snapshot-write", "checkpoint")),
        "ckpt.write_mb_per_s": shard_bytes / 1e6 / write_sum if write_sum > 0 else 0.0,
        "ckpt.bytes_per_snapshot": shard_bytes / snapshots if snapshots else 0.0,
        "runtime.msgs_per_iter": counters.get("fabric_messages_total", 0) / iterations,
        "runtime.bytes_per_iter": counters.get("fabric_bytes_total", 0) / iterations,
        "runtime.recv_wait_s": rank_max(("recv-wait", "any")),
        "runtime.isend_s": rank_max(("isend", "any")),
        "runtime.barrier_s": rank_max(("barrier", "any")),
        "runtime.allreduce_s": rank_max(("allreduce", "any")),
        "core.checkpoint_s": rank_max(("checkpoint", None)),
        "core.sweep_s": rank_max(("sweep", "compute")),
        "core.sweep_us_per_probe": rank_sum(("sweep", "compute")) / probes * 1e6 if probes else 0.0,
        "core.sweep_probes": probes,
        "fft.transforms_per_probe": counters.get("fft2d_transforms_total", 0) / probes if probes else 0.0,
        "mem.peak_max_mib": gauges.get("mem_peak_bytes_max", 0) / MIB,
        "core.compute_s": max(compute, default=0.0),
        "core.wait_s": rank_max(("phase", "wait")),
        "core.comm_s": rank_max(("phase", "comm")),
        "core.imbalance": max(compute) / statistics.mean(compute) if sum(compute) > 0 else 0.0,
    }


def grouped_median(values, width):
    """Median of values rounded to multiples of `width`, interpolated within
    the median's bin (the median of grouped data). A plain median of
    rounded values repeats the same few numbers from run to run."""
    bins = sorted(round(v / width) for v in values)
    mid = bins[(len(bins) - 1) // 2]
    below = sum(1 for b in bins if b < mid)
    inside = sum(1 for b in bins if b == mid)
    return (mid - 0.5 + (len(bins) / 2 - below) / inside) * width


def median_dict(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


# ---- counts that must repeat ----------------------------------------------------

def exact_values(invocations, timed):
    """This run's exact counts, and the ones that differ between its
    invocations. `timed` holds the counts perfbench_tool computed once."""
    seen = {}
    for s in invocations:
        counts = {"peak_mem_per_rank_mib": s["peak_mem_per_rank_mib"], **s.get("layers", {})}
        for k in EXACT:
            if k in counts:
                seen.setdefault(k, set()).add(counts[k])
    exact = {k: min(v) for k, v in seen.items()}
    exact.update((k, timed[k]) for k in EXACT if k in timed)
    return exact, sorted(k for k, v in seen.items() if len(v) > 1)


def check_exact(src_hash, workload, values):
    """Compare this run's exact counts with every earlier run of the same
    sources in this checkout. Returns a list of mismatches."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        record = {}
    seen = record.setdefault(src_hash, {}).setdefault(workload, {})
    problems = []
    for key, value in values.items():
        if key in seen and seen[key] != value:
            problems.append(f"{key}: {value} here, {seen[key]} in an earlier run")
        seen.setdefault(key, value)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


# ---- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    for needed in ("CMakeLists.txt", "src", os.path.join("tools", "ptycho_cli.cpp")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail_setup(f"run from the repository root: {needed} is missing")

    src_hash = source_hash()
    ptycho, tool = build(src_hash)
    global T_START
    T_START = time.perf_counter()
    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    work = os.path.join(OUT, f"work-{opts.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, record = run(opts, src_hash, ptycho, tool, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(OUT, "runs", f"{opts.workload}-seed{opts.seed}-trace{opts.trace}-"
                           f"{stamp}-{os.getpid()}.json"), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))


def run(opts, src_hash, ptycho, tool, work):
    r = Runner(opts.workload, opts.seed, ptycho, tool, work, opts.trace)
    samples, traced, untraced = [], [], []
    problems = []
    metrics = {}
    timed = {}
    try:
        r.prepare()
    except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
        # The program could not produce the inputs or references: one
        # failed attempt, no metrics.
        log(f"{opts.workload}: preparing the inputs failed: {e}")
        r.attempted = r.failed = 1
        return report(opts, r, src_hash, samples, traced, metrics, problems,
                      {"workload": opts.workload, "seed": opts.seed})
    log(f"{opts.workload}: inputs ready (seed {opts.seed}, {r.probes} probes)")
    r.run_once()  # warm-up: binary, dataset and snapshot pages cached; checked, not timed

    begin = time.perf_counter()

    def keep_going(n):
        now = time.perf_counter()
        if now - T_START > SAMPLING_DEADLINE_S:
            return False
        return n < MIN_SAMPLES or now - begin < opts.seconds

    if opts.trace == 0:
        while keep_going(len(samples)):
            s = r.run_once()
            if s:
                samples.append(s)
    else:
        while keep_going(len(traced)):
            s = r.run_once()
            if s:
                untraced.append(s)
            tag = f"inv{r.count + 1}"
            s = r.run_once(traced=True)
            if not s:
                break
            try:
                s["layers"] = summarize_trace(r.path(f"{tag}.trace.json"),
                                              r.path(f"{tag}.metrics.json"), s["iterations"])
            except (OSError, ValueError, KeyError) as e:
                r.failed += 1
                log(f"unreadable trace or metrics from invocation {r.count}: {e!r}")
                break
            traced.append(s)
        samples = untraced

    record = {"workload": opts.workload, "seed": opts.seed, "seconds": opts.seconds,
              "trace": opts.trace, "samples": samples, "traced_samples": traced}
    if opts.trace == 0:
        if samples:
            for name in END_TO_END:
                metrics[name] = statistics.median(s[name] for s in samples)
            metrics["probes_per_s"] = samples[0]["probe_evals"] / grouped_median(
                [s["wall_s"] for s in samples], WALL_RESOLUTION_S)
    else:
        if traced and untraced:
            layers = median_dict([s["layers"] for s in traced])
            layer_args = ["layers", "--dataset", r.path("data.ptyd"),
                          "--spans", r.path("layers-spans.json"), "--ranks", r.ranks()]
            # Restore is timed on the workload's own snapshot, or, in the
            # socket workload, on the snapshots its last traced run wrote.
            if r.w.get("restore") or r.w.get("socket"):
                args = r.w["args"]
                layer_args += ["--ckpt-read", r.path("snapshot" if r.w.get("restore") else "ckpt"),
                               "--mode", args[args.index("--mode") + 1]]
                if "--passes" in args:
                    layer_args += ["--passes", args[args.index("--passes") + 1]]
            try:
                timed = run_tool(tool, layer_args, r.work)
            except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
                log(f"layer timings failed: {e}")
                problems.append("layer timings failed")
                timed = {}
            r.backend = timed.pop("backend.name", r.backend)
            if r.w.get("socket"):
                layers["core.imbalance"] = r.twin_imbalance
            metrics.update(layers)
            metrics.update(timed)
            metrics["obs.trace_overhead"] = (
                statistics.median(s["total_s"] for s in traced)
                / statistics.median(s["total_s"] for s in untraced) - 1.0)
            if timed:
                with open(r.path("layers-spans.json")) as f:
                    record["layer_spans"] = json.load(f)["spans"]
            record["trace_summary"] = layers
    if metrics:
        exact, differ = exact_values(samples + traced, timed)
        for p in [f"{k} differs between invocations" for k in differ] + check_exact(
                src_hash, opts.workload, exact):
            log(f"nondeterminism: {p}")
            problems.append(p)
    return report(opts, r, src_hash, samples, traced, metrics, problems, record)


def report(opts, r, src_hash, samples, traced, metrics, problems, record):
    units = PER_LAYER if opts.trace else END_TO_END
    missing = [k for k in units if k not in metrics]
    correct = r.failed == 0 and not problems and not missing
    if missing:
        log(f"missing metrics: {', '.join(missing)}")
    record["provenance"] = {
        "workload": opts.workload, "seed": opts.seed, "held_out_seed": HELD_OUT_SEED,
        "cores": os.cpu_count(), "compiler": compiler_version(), "backend": r.backend,
        "llc_bytes": llc_bytes(), "source_hash": src_hash,
        "samples": len(samples), "traced_samples": len(traced),
    }
    result = {
        "correct": correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": float(metrics.get(k, 0.0)), "unit": u} for k, u in units.items()},
    }
    record["result"] = result
    return result, record


if __name__ == "__main__":
    main()
