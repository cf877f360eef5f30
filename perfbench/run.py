#!/usr/bin/env python3
"""End-to-end benchmark of the CosmicDance CLI and daemon.

    python3 perfbench/run.py --workload analyze_warm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree.  The first run builds the program from
source into .bench_build/.  Every run generates its inputs from --seed with
the tree's own `cosmicdance gen-dst` and `cosmicdance simulate`, measures one
workload for --seconds, checks every output, and prints one JSON record as
the last line of stdout: the end-to-end metrics with --trace 0, the
per-layer ledger (from the traced in-process replay, perftrace) with
--trace 1.  perfbench/README.md describes the workloads and every metric.
"""

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import re
import selectors
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
WORK_BASE = ROOT / ".bench_work"
RECORDS = ROOT / ".bench_records"

# `simulate` as a workload is left out: see perfbench/README.md, "Dropped".
# Its layers are measured by every traced run's replay.
WORKLOADS = ("analyze_cold", "analyze_warm", "serve_mix")

# Dataset scale: the paper window with 2 satellites every 30 days (about
# 38k Dst hours and 160k TLE records, 22 MB).  --smoke shrinks the fleet.
SCALE = {"per_batch": 2, "cadence": 30}
SMOKE_SCALE = {"per_batch": 1, "cadence": 120}

SETUP_REPS = 9          # set-up is the median of this many repetitions
SERVE_CONNECTIONS = 2   # closed-loop mix connections
TRACE_REPS = 5          # replay iterations per phase in a traced run
PING_PROBE = 200        # idle-daemon pings behind serve.wire_ms_p50

# A run measures for --seconds and then on until it has these many samples,
# so that every run, however slow the program, reads its percentiles from
# enough samples: 40 CLI processes put 10 beyond the p75, and 10 reloads
# give a median.  MEASURE_CAP_S bounds the run; a run that reaches it short
# of its minimum counts a failed op.
MIN_CLI_SAMPLES = 40
MIN_RELOADS = 10
MEASURE_CAP_S = 120.0

# Completed mix requests between reloads.  A deployed daemon reloads when
# its inputs change, at most hourly (Dst is an hourly index and new TLE sets
# arrive a few times a day), so real traffic is far more read-heavy than
# this; no measured query rate exists to derive it from.  The interval is a
# stress setting: at ~1500 requests/s it gives a reload every ~0.7 s, about
# 45 reloads in a 30 s run, with a rebuild in flight for ~13 % of the run.
# That share is reported as serve.reload_busy_share, so a change that moves
# the read/swap balance shows as such.
RELOAD_EVERY = 1000

# Tails are read per window of consecutive samples, in the order they were
# taken, with 10 samples beyond the percentile in every window, and a run
# reports the median of its windows' tails.  The windows see the same
# program, so the median keeps a change that slows every window and drops a
# burst of host CPU steal that lands on a few; one tail over the whole run
# moved with such bursts.
#
# wall_ms_p75: windows of MIN_CLI_SAMPLES processes or mix cycles.  The CLI
# "p99" is the same p75, the highest percentile that keeps 10 samples beyond
# it, fixed so that parent and change are read at the same percentile.
# serve_mix latency_ms_p99: windows of RELOAD_EVERY requests, one reload
# cycle each.
CLI_TAIL_Q = 0.75
SERVE_TAIL_Q = 0.99

# The serve_mix request cycle.  perftrace replays exactly these lines.
MIX = (
    '{"op":"ping"}',
    '{"op":"stats"}',
    '{"op":"sat_series","max_samples":128}',
    '{"op":"storm_summary"}',
    '{"op":"envelope_cdf","points":16}',
    '{"op":"decay_summary"}',
)
MIX_OPS = tuple(json.loads(r)["op"] for r in MIX)

END_TO_END = (
    ("wall_ms_p50", "ms"), ("wall_ms_p75", "ms"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"), ("latency_ms_p50", "ms"), ("latency_ms_p99", "ms"),
    ("throughput_qps", "1/s"), ("reload_ms_p50", "ms"),
)

# Per-layer timings: name -> (replay phase, span).  Each is the median over
# iterations of the span's per-iteration self time, taken from the traced
# run's own workload phase when the span occurs there and from the phase
# named here otherwise.  Every blocking span of a workload's phase has a
# metric here, so the ledger's layers add up to its attributed time.
LAYER_MS = {
    "io.out_dir_ms": ("analyze_warm", "io.out_dir"),
    "io.map_inputs_ms": ("analyze_warm", "io.map_inputs"),
    "io.unmap_inputs_ms": ("analyze_warm", "io.unmap_inputs"),
    "io.snapshot_free_ms": ("analyze_warm", "io.snapshot_free"),
    "io.ingest_state_ms": ("analyze_cold", "io.ingest_state"),
    "io.snapshot_copy_ms": ("analyze_cold", "io.snapshot_copy"),
    "io.snapshot_save_ms": ("analyze_cold", "io.snapshot_save"),
    "io.save_join_wait_ms": ("analyze_cold", "io.save_join_wait"),
    "io.classify_inputs_ms": ("analyze_warm", "io.classify_inputs"),
    "io.snapshot_load_ms": ("analyze_warm", "io.snapshot_load"),
    "io.csv_write_ms": ("analyze_warm", "io.csv_write"),
    "io.catalog_write_ms": ("simulate", "io.catalog_write"),
    "spaceweather.from_wdc_ms": ("analyze_cold", "spaceweather.from_wdc"),
    "spaceweather.storm_detect_ms": ("analyze_warm", "spaceweather.storm_detect"),
    "spaceweather.percentile_ms": ("analyze_warm", "spaceweather.percentile"),
    "tle.add_from_text_ms": ("analyze_cold", "tle.add_from_text"),
    "tle.to_text_ms": ("simulate", "tle.to_text"),
    "simulation.run_ms": ("simulate", "simulation.run"),
    "core.build_tracks_ms": ("analyze_warm", "core.build_tracks"),
    "core.clean_tracks_ms": ("analyze_warm", "core.clean_tracks"),
    "core.warm_median_caches_ms": ("analyze_warm", "core.warm_median_caches"),
    "core.correlator_init_ms": ("analyze_warm", "core.correlator_init"),
    "core.correlate_ms": ("analyze_warm", "core.correlate"),
    "core.raw_tracks_ms": ("analyze_warm", "core.raw_tracks"),
    "core.all_altitudes_ms": ("analyze_warm", "core.all_altitudes"),
    "core.export_rows_ms": ("analyze_warm", "core.export_rows"),
    "stats.ecdf_ms": ("analyze_warm", "stats.ecdf"),
    "run.teardown_ms": ("analyze_warm", "run.teardown"),
    "serve.rebuild_ms": ("serve", "serve.rebuild"),
    "serve.encode_frames_ms": ("serve", "serve.encode_frame"),
}
for _op in MIX_OPS:
    LAYER_MS[f"serve.{_op}.handle_ms_p50"] = ("serve", f"serve.handle.{_op}")

# Layers that take a thread count: <layer>.speedup = threads-1 median over
# threads-0 (all hardware threads) median.
SPEEDUP = {
    "tle.add_from_text.speedup": "tle.add_from_text_ms",
    "io.snapshot_save.speedup": "io.snapshot_save_ms",
    "io.snapshot_load.speedup": "io.snapshot_load_ms",
    "core.build_tracks.speedup": "core.build_tracks_ms",
    "core.clean_tracks.speedup": "core.clean_tracks_ms",
    "core.warm_median_caches.speedup": "core.warm_median_caches_ms",
    "core.correlate.speedup": "core.correlate_ms",
    "core.raw_tracks.speedup": "core.raw_tracks_ms",
    "core.all_altitudes.speedup": "core.all_altitudes_ms",
    "serve.envelope_cdf.speedup": "serve.envelope_cdf.handle_ms_p50",
    "serve.decay_summary.speedup": "serve.decay_summary.handle_ms_p50",
    "serve.rebuild.speedup": "serve.rebuild_ms",
}

PER_LAYER_UNITS = {name: "ms" for name in LAYER_MS}
PER_LAYER_UNITS.update({
    "io.snapshot_save_bytes": "bytes",
    "io.snapshot_load_records_per_s": "1/s",
    "io.csv_bytes": "bytes",
    "tle.records": "count",
    "tle.records_per_s": "1/s",
    "tle.to_text_mb_per_s": "MB/s",
    "simulation.sat_hours_per_s": "1/s",
    "simulation.tles_emitted": "count",
    "core.correlator_cells": "count",
    "serve.parse_json_us": "us",
    "serve.encode_frame_us": "us",
    "serve.wire_ms_p50": "ms",
    "run.unattributed_ms": "ms",
    "run.attributed_share": "ratio",
    "run.trace_overhead_ms": "ms",
    "host.probe_start_ms": "ms",
    "host.probe_end_ms": "ms",
    "host.steal_share": "ratio",
})
PER_LAYER_UNITS.update({name: "ratio" for name in SPEEDUP})


class BenchError(Exception):
    """The benchmark itself could not run (no source tree, build failure)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ---- statistics --------------------------------------------------------------

def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def windowed_tail(in_order, window, q):
    """Median over consecutive windows of `window` samples of each window's
    q-quantile; the whole list's q-quantile if it is shorter than a window."""
    tails = [quantile(in_order[i:i + window], q)
             for i in range(0, len(in_order) - window + 1, window)]
    return statistics.median(tails or [quantile(in_order, q)])


# ---- build and inputs ----------------------------------------------------------

def check_tree():
    for needed in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/cosmicdance_cli.cpp",
                   "tools/cosmicdanced.cpp"):
        if not (ROOT / needed).exists():
            raise BenchError(f"no CosmicDance source tree at {ROOT} (missing {needed})")


def build():
    """Configure once, then bring the three binaries up to date."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock, open(BUILD / "build.log", "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(ROOT), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                          f"-DCMAKE_PROJECT_cosmicdance_INCLUDE={BENCH_DIR / 'perftrace.cmake'}"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                      "cosmicdance", "cosmicdanced", "perftrace"])
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build step failed: {' '.join(step)} (see {BUILD / 'build.log'})")
    return {
        "cli": str(BUILD / "tools" / "cosmicdance"),
        "daemon": str(BUILD / "tools" / "cosmicdanced"),
        "trace": str(BUILD / "perfbench" / "perftrace"),
    }


def simulate_args(ctx, out):
    return [ctx.bins["cli"], "simulate", "--dst", ctx.dst, "--scenario", "paper",
            "--per-batch", str(ctx.scale["per_batch"]), "--cadence", str(ctx.scale["cadence"]),
            "--seed", str(ctx.seed), "--out", out]


def make_inputs(ctx):
    """Dst series and simulated catalog for this seed, from the tree's CLI.
    The traced replay simulates the catalog again and must match it."""
    subprocess.run([ctx.bins["cli"], "gen-dst", "--preset", "paper", "--seed", str(ctx.seed),
                    "--out", ctx.dst], check=True, stdout=subprocess.DEVNULL)
    subprocess.run(simulate_args(ctx, ctx.tles), check=True, stdout=subprocess.DEVNULL)
    ctx.digests["catalog"] = digest_file(ctx.tles)


# ---- processes and digests -------------------------------------------------------

def run_timed(cmd, err_path):
    """Spawn, wait, and return (wall seconds, exit code, peak RSS in MB)."""
    with open(err_path, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def digest_dir(path):
    h = hashlib.sha256()
    for f in sorted(Path(path).iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


def digest_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


EPOCH_FIELDS = re.compile(rb'"epoch":\d+,|,"epoch_end":\d+')
EPOCH_PAIR = re.compile(rb'"epoch":(\d+),.*,"epoch_end":(\d+)\}$', re.S)


def response_problem(response):
    """Why a daemon response counts as a failed op, or None."""
    if not response.startswith(b'{"ok":true'):
        return response[:200].decode(errors="replace")
    pair = EPOCH_PAIR.search(response)
    if pair is None or pair.group(1) != pair.group(2):
        return "torn epoch bracket"
    return None


def response_digest(response):
    return hashlib.sha256(EPOCH_FIELDS.sub(b"", response)).hexdigest()


class Tally:
    """Attempted/failed operations and the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def op(self, problem=None):
        self.attempted += 1
        if problem:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(problem)

    def check(self, problem):
        """A cross-check outside the timed ops; a mismatch is a failed op."""
        if problem:
            self.op(problem)


# ---- CLI workloads -----------------------------------------------------------------

def analyze_cmd(ctx, cache, out):
    return [ctx.bins["cli"], "analyze", "--dst", ctx.dst, "--tles", ctx.tles,
            "--out-dir", out, "--cache-dir", cache]


def measuring(ctx, enough):
    """True while a run must keep measuring: before the --seconds deadline,
    or until enough() holds, and never past MEASURE_CAP_S."""
    now = time.perf_counter() - ctx.measure_start
    return now < MEASURE_CAP_S and (now < ctx.seconds or not enough())


def run_cli_loop(ctx, prepare, command, outputs):
    """Run CLI iterations one at a time for ctx.seconds, and on until there
    are MIN_CLI_SAMPLES of them.

    prepare() readies the next iteration (untimed); command() is the argv;
    outputs() digests what it wrote.  Every iteration must exit 0 and
    reproduce ctx.reference."""
    walls, rss = [], []
    err = ctx.work / "stderr-loop.log"
    ctx.measure_start = time.perf_counter()
    while measuring(ctx, lambda: len(walls) >= MIN_CLI_SAMPLES):
        prepare()
        try:
            wall, code, peak = run_timed(command(), err)
        except OSError as error:
            ctx.tally.op(f"spawn failed: {error}")
            continue
        problem = None
        if code != 0:
            problem = f"exit {code}: {err.read_text(errors='replace')[-300:]}"
        elif outputs() != ctx.reference:
            problem = "output digest differs from the run's first iteration"
        ctx.tally.op(problem)
        walls.append(wall)
        rss.append(peak)
    elapsed = time.perf_counter() - ctx.measure_start
    ctx.tally.check(None if len(walls) >= MIN_CLI_SAMPLES else
                    f"only {len(walls)} CLI samples in {MEASURE_CAP_S:.0f} s")
    return walls, rss, elapsed


def cli_metrics(ctx, walls, rss, elapsed, setup):
    ms = [w * 1000.0 for w in walls]
    ctx.samples = {"wall": len(ms), "latency": len(ms), "reload": len(ms)}
    return {
        "wall_ms_p50": statistics.median(ms),
        "wall_ms_p75": windowed_tail(ms, MIN_CLI_SAMPLES, 0.75),
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setup),
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p99": windowed_tail(ms, MIN_CLI_SAMPLES, CLI_TAIL_Q),
        "throughput_qps": len(ms) / elapsed,
        "reload_ms_p50": statistics.median(ms),
    }


def analyze_setup(ctx, cache, out):
    """SETUP_REPS cold runs into an empty cache; returns their wall times and
    sets ctx.reference to their (identical) output digest."""
    setup = []
    for _ in range(SETUP_REPS):
        shutil.rmtree(cache, ignore_errors=True)
        wall, code, _ = run_timed(analyze_cmd(ctx, cache, out), ctx.work / "stderr-setup.log")
        if code != 0:
            raise BenchError(f"set-up analyze exited {code}")
        setup.append(wall)
        digest = digest_dir(out)
        ctx.reference = ctx.reference or digest
        ctx.tally.check(None if digest == ctx.reference else "set-up outputs differ")
    ctx.digests["analyze_cold"] = ctx.reference
    return setup


def workload_analyze_cold(ctx):
    cache, out = str(ctx.work / "cache"), str(ctx.work / "out")
    setup = analyze_setup(ctx, cache, out)
    walls, rss, elapsed = run_cli_loop(
        ctx, lambda: shutil.rmtree(cache, ignore_errors=True),
        lambda: analyze_cmd(ctx, cache, out), lambda: digest_dir(out))
    # Cold outputs must equal warm outputs: one warm run on the last cache.
    warm_out = str(ctx.work / "out_warm")
    _, code, _ = run_timed(analyze_cmd(ctx, cache, warm_out), ctx.work / "stderr-check.log")
    ctx.digests["analyze_warm"] = digest_dir(warm_out) if code == 0 else f"exit {code}"
    ctx.tally.check(None if ctx.digests["analyze_warm"] == ctx.reference
                    else "warm outputs differ from cold outputs")
    return cli_metrics(ctx, walls, rss, elapsed, setup)


def workload_analyze_warm(ctx):
    cache, out = str(ctx.work / "cache"), str(ctx.work / "out")
    setup = analyze_setup(ctx, cache, str(ctx.work / "out_cold"))
    snapshots = sorted(Path(cache).glob("*.cdsnap"))
    before = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in snapshots]
    walls, rss, elapsed = run_cli_loop(
        ctx, lambda: None, lambda: analyze_cmd(ctx, cache, out), lambda: digest_dir(out))
    ctx.digests["analyze_warm"] = ctx.reference
    # An exact hit never rewrites the snapshot.
    after = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in sorted(Path(cache).glob("*.cdsnap"))]
    ctx.tally.check(None if snapshots and before == after
                    else "warm runs rewrote the snapshot (no exact hit)")
    return cli_metrics(ctx, walls, rss, elapsed, setup)


# ---- the daemon ---------------------------------------------------------------------

def recv_exact(sock, n):
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        buf += chunk
    return bytes(buf)


class Connection:
    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def request(self, payload):
        """Send one frame; return (response bytes, seconds from send to reply)."""
        data = payload.encode()
        start = time.perf_counter()
        self.sock.sendall(struct.pack("<I", len(data)) + data)
        (size,) = struct.unpack("<I", recv_exact(self.sock, 4))
        response = recv_exact(self.sock, size)
        return response, time.perf_counter() - start

    def close(self):
        self.sock.close()


class Exchange(Connection):
    """A connection with at most one request in flight, whose reply is read
    as it arrives so that one thread can drive several connections."""

    def __init__(self, port):
        super().__init__(port)
        self.busy = False
        self.step = 0       # index of the request in flight within MIX
        self.cycle = 0.0    # seconds spent in the current MIX cycle so far

    def send(self, payload, step):
        data = payload.encode()
        self.step, self.busy, self.buf = step, True, bytearray()
        self.start = time.perf_counter()
        self.sock.sendall(struct.pack("<I", len(data)) + data)

    def receive(self):
        """Read what has arrived; once the reply is whole, return it with the
        seconds from send to reply, else None."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk
        if len(self.buf) < 4:
            return None
        (size,) = struct.unpack_from("<I", self.buf)
        if len(self.buf) < 4 + size:
            return None
        seconds = time.perf_counter() - self.start
        self.busy = False
        return bytes(self.buf[4:4 + size]), seconds


class Daemon:
    """One cosmicdanced process on an ephemeral port with a filled cache."""

    def __init__(self, ctx, cache):
        self.port_file = ctx.work / "daemon.port"
        with contextlib.suppress(FileNotFoundError):
            self.port_file.unlink()
        self.err = open(ctx.work / "stderr-daemon.log", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [ctx.bins["daemon"], "--listen", "127.0.0.1:0", "--dst", ctx.dst,
             "--tles", ctx.tles, "--cache-dir", cache, "--port-file", str(self.port_file)],
            stdout=subprocess.DEVNULL, stderr=self.err)
        self.port = self._wait_for_port()

    def _wait_for_port(self):
        deadline = time.perf_counter() + 60
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"cosmicdanced exited {self.proc.returncode} during start-up")
            with contextlib.suppress(FileNotFoundError):
                text = self.port_file.read_text()
                if text.endswith("\n"):
                    return int(text)
            time.sleep(0.001)
        raise BenchError("cosmicdanced did not report a port within 60 s")

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for cosmicdanced")

    def stop(self):
        if self.proc.poll() is None:
            with contextlib.suppress(OSError):
                conn = Connection(self.port)
                conn.request('{"op":"shutdown"}')
                conn.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


def boot_daemon(ctx, cache):
    """Spawn the daemon and wait for its first ping reply; returns the daemon
    and the seconds from spawn to that reply."""
    daemon = Daemon(ctx, cache)
    ctx.children.append(daemon)
    conn = Connection(daemon.port)
    response, _ = conn.request(MIX[0])
    conn.close()
    ctx.tally.check(response_problem(response))
    return daemon, time.perf_counter() - daemon.started


def workload_serve_mix(ctx):
    cache = str(ctx.work / "cache")
    # Fill the cache before set-up is timed: boot and reloads take the exact hit.
    _, code, _ = run_timed(analyze_cmd(ctx, cache, str(ctx.work / "out_fill")),
                           ctx.work / "stderr-setup.log")
    if code != 0:
        raise BenchError(f"cache-filling analyze exited {code}")
    setup = []
    for rep in range(SETUP_REPS):
        daemon, seconds = boot_daemon(ctx, cache)
        setup.append(seconds)
        if rep + 1 < SETUP_REPS:
            daemon.stop()

    latencies = {op: [] for op in MIX_OPS}
    cycles, reloads, in_order = [], [], []
    reference = {}

    def check(op, response):
        problem = response_problem(response)
        if problem is None:
            digest = response_digest(response)
            reference.setdefault(op, digest)
            if digest != reference[op]:
                problem = f"{op} response differs from its first response"
        return problem

    # One thread drives every connection, so the load generator adds no
    # thread of its own that could delay a reply's timestamp.
    mix = [Exchange(daemon.port) for _ in range(SERVE_CONNECTIONS)]
    reload_conn = Exchange(daemon.port)
    selector = selectors.DefaultSelector()
    for conn in mix + [reload_conn]:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    completed, mark = 0, RELOAD_EVERY
    ctx.measure_start = mix_end = time.perf_counter()
    for conn in mix:
        conn.send(MIX[0], 0)
    try:
        while any(conn.busy for conn in mix + [reload_conn]):
            events = selector.select(timeout=60)
            if not events:
                raise BenchError("cosmicdanced sent no reply within 60 s")
            for key, _ in events:
                conn = key.data
                reply = conn.receive()
                if reply is None:
                    continue
                response, seconds = reply
                if conn is reload_conn:
                    ctx.tally.op(response_problem(response))
                    reloads.append(seconds)
                    mark += RELOAD_EVERY
                    continue
                op = MIX_OPS[conn.step]
                ctx.tally.op(check(op, response))
                latencies[op].append(seconds)
                in_order.append(seconds * 1000.0)
                conn.cycle += seconds
                completed += 1
                mix_end = time.perf_counter()
                step = conn.step + 1
                if step == len(MIX):
                    cycles.append(conn.cycle)
                    conn.cycle, step = 0.0, 0
                    if not measuring(ctx, lambda: len(reloads) >= MIN_RELOADS):
                        continue
                conn.send(MIX[step], step)
            if not reload_conn.busy and completed >= mark and any(c.busy for c in mix):
                reload_conn.send('{"op":"reload"}', 0)
    except (OSError, ConnectionError) as error:
        ctx.tally.op(f"mix connection: {error}")
    finally:
        selector.close()
        for conn in mix + [reload_conn]:
            conn.close()
    elapsed = mix_end - ctx.measure_start
    peak = daemon.peak_rss_mb()
    daemon.stop()

    ctx.digests["responses"] = reference
    ms = [s * 1000.0 for op in MIX_OPS for s in latencies[op]]
    cycle_ms = [s * 1000.0 for s in cycles]
    ctx.tally.check(None if len(reloads) >= MIN_RELOADS else
                    f"only {len(reloads)} reloads in {MEASURE_CAP_S:.0f} s")
    if not reloads:
        raise BenchError("no reload completed")
    ctx.samples = {"wall": len(cycle_ms), "latency": len(ms), "reload": len(reloads)}
    ctx.reload_busy_share = sum(reloads) / elapsed
    return {
        "wall_ms_p50": statistics.median(cycle_ms),
        "wall_ms_p75": windowed_tail(cycle_ms, MIN_CLI_SAMPLES, 0.75),
        "peak_rss_mb": peak,
        "setup_s": statistics.median(setup),
        "latency_ms_p50": statistics.median(ms),
        "latency_ms_p99": windowed_tail(in_order, RELOAD_EVERY, SERVE_TAIL_Q),
        "throughput_qps": len(ms) / elapsed,
        "reload_ms_p50": statistics.median(s * 1000.0 for s in reloads),
    }


def ping_probe(ctx):
    """Client-side ping latency on an idle daemon (serve.wire_ms_p50)."""
    cache = str(ctx.work / "replay" / "cache")
    daemon, _ = boot_daemon(ctx, cache)
    conn = Connection(daemon.port)
    samples = []
    for _ in range(PING_PROBE):
        response, seconds = conn.request(MIX[0])
        ctx.tally.check(response_problem(response))
        samples.append(seconds * 1000.0)
    conn.close()
    daemon.stop()
    return statistics.median(samples)


WORKLOAD_FN = {
    "analyze_cold": workload_analyze_cold,
    "analyze_warm": workload_analyze_warm,
    "serve_mix": workload_serve_mix,
}


# ---- traced replay --------------------------------------------------------------------

def replay(ctx, threads, reps, phases, tag):
    work = ctx.work / "replay"
    spans = ctx.work / f"spans-{tag}.json"
    cmd = [ctx.bins["trace"], "replay", "--dst", ctx.dst, "--tles", ctx.tles,
           "--work", str(work), "--requests", str(ctx.requests), "--seed", str(ctx.seed),
           "--per-batch", str(ctx.scale["per_batch"]), "--cadence", str(ctx.scale["cadence"]),
           "--threads", str(threads), "--reps", str(reps), "--phases", ",".join(phases),
           "--spans-out", str(spans)]
    with open(ctx.work / "stderr-replay.log", "ab") as err:
        if subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=err).returncode != 0:
            raise BenchError(f"perftrace replay failed (see {ctx.work / 'stderr-replay.log'})")
    return json.loads(spans.read_text())


def replay_digests(ctx):
    """Digests of the replay's outputs, in the CLI's terms."""
    work = ctx.work / "replay"
    found = {}
    if (work / "analyze_cold").is_dir():
        found["analyze_cold"] = digest_dir(work / "analyze_cold")
        found["analyze_warm"] = digest_dir(work / "analyze_warm")
    if (work / "catalog.tle").exists():
        found["catalog"] = digest_file(work / "catalog.tle")
    if (work / "responses.txt").exists():
        lines = (work / "responses.txt").read_bytes().splitlines()
        found["responses"] = {op: response_digest(line) for op, line in zip(MIX_OPS, lines)}
    return found


def check_replay(ctx, found):
    """The replay must reproduce every output the CLI/daemon produced."""
    for key, digest in ctx.digests.items():
        if key in found and found[key] != digest:
            ctx.tally.check(f"traced replay {key} differs from the CLI's")
    ctx.digests.update({f"replay.{k}": v for k, v in found.items()})


def layer_table(trace):
    """(phase, span) -> per-iteration self-time sums, plus per-call
    durations and per-iteration count sums."""
    spans = trace["spans"]
    self_ms = [s["end_ms"] - s["start_ms"] for s in spans]
    for s in spans:
        if s["parent"] >= 0 and not s["async"]:
            self_ms[s["parent"]] -= s["end_ms"] - s["start_ms"]
    root_of = {s["iteration"]: s["name"] for s in spans if s["parent"] < 0}
    per_iter, calls, roots = {}, {}, {}
    for s, own in zip(spans, self_ms):
        phase = root_of[s["iteration"]]
        if s["parent"] < 0:
            roots.setdefault(phase, []).append(s["end_ms"] - s["start_ms"])
            continue
        key = (phase, s["name"])
        bucket = per_iter.setdefault(key, {})
        bucket[s["iteration"]] = bucket.get(s["iteration"], 0.0) + own
        calls.setdefault(s["name"], []).append(s["end_ms"] - s["start_ms"])
    counts = {}
    for c in trace["counts"]:
        bucket = counts.setdefault(c["name"], {})
        bucket[c["iteration"]] = bucket.get(c["iteration"], 0.0) + c["value"]
    return ({k: list(v.values()) for k, v in per_iter.items()}, calls, roots,
            {k: statistics.median(v.values()) for k, v in counts.items()})


def own_phase(workload):
    return "serve" if workload == "serve_mix" else workload


def layer_values(per_iter, phase=None):
    """LAYER_MS medians, from `phase` where the span occurs there and from
    each metric's own phase otherwise."""
    values = {}
    for name, (default_phase, span) in LAYER_MS.items():
        samples = per_iter.get((phase, span)) or per_iter.get((default_phase, span))
        if samples:
            values[name] = statistics.median(samples)
    return values


# Spans of the serve phase that are not on a mix cycle's blocking path: the
# replay's serve.parse_json repeats the parse inside serve.handle, and the
# reload runs on its own connection.
OFF_CYCLE = ("serve.parse_json", "serve.rebuild")


def ledger_metrics(trace, per_iter, phase):
    """Names of the per-layer metrics whose sum is the phase's attributed
    time: one per blocking span of the phase."""
    background = {s["name"] for s in trace["spans"] if s["async"]}
    metric_of = {span: name for name, (_, span) in LAYER_MS.items()}
    names = []
    for p, span in per_iter:
        if p != phase or span in background or span in OFF_CYCLE:
            continue
        if span not in metric_of:
            raise BenchError(f"blocking span {span} of phase {phase} has no per-layer metric")
        names.append(metric_of[span])
    return names


def per_layer_metrics(ctx, e2e, auto, serial, wire_ms):
    per_iter, calls, roots, counts = layer_table(auto)
    phase = own_phase(ctx.workload)
    m = layer_values(per_iter, phase)
    # Rates and speedups always read the phase named in LAYER_MS, where the
    # layer does its full work (a cold analyze's snapshot load is a miss).
    named = layer_values(per_iter)
    m["io.snapshot_save_bytes"] = counts["io.snapshot_save_bytes"]
    m["io.csv_bytes"] = counts["io.csv_bytes"]
    m["tle.records"] = counts["tle.records"]
    m["simulation.tles_emitted"] = counts["simulation.tles_emitted"]
    m["core.correlator_cells"] = counts["core.correlator_cells"]
    m["io.snapshot_load_records_per_s"] = counts["io.snapshot_load_records"] / (named["io.snapshot_load_ms"] / 1000.0)
    m["tle.records_per_s"] = counts["tle.records"] / (named["tle.add_from_text_ms"] / 1000.0)
    m["tle.to_text_mb_per_s"] = counts["tle.to_text_bytes"] / 1e6 / (named["tle.to_text_ms"] / 1000.0)
    m["simulation.sat_hours_per_s"] = counts["simulation.sat_hours"] / (named["simulation.run_ms"] / 1000.0)
    m["serve.parse_json_us"] = statistics.median(calls["serve.parse_json"]) * 1000.0
    m["serve.encode_frame_us"] = statistics.median(calls["serve.encode_frame"]) * 1000.0
    m["serve.wire_ms_p50"] = wire_ms - m["serve.ping.handle_ms_p50"]

    serial_named = layer_values(layer_table(serial)[0])
    for name, source in SPEEDUP.items():
        m[name] = serial_named[source] / named[source]

    # The run's own workload: untraced wall time against the sum of the
    # reported layer metrics of its blocking spans (on serve_mix, one mix
    # cycle: six serve.handle calls and their frame encodes).
    attributed = sum(m[name] for name in ledger_metrics(auto, per_iter, phase))
    traced_total = statistics.median(roots[phase])
    if phase == "serve":
        traced_total -= sum(statistics.median(per_iter[(phase, span)]) for span in OFF_CYCLE)
    wall = e2e["wall_ms_p50"]
    m["run.unattributed_ms"] = wall - attributed
    m["run.attributed_share"] = attributed / wall
    m["run.trace_overhead_ms"] = traced_total - wall
    return m


# ---- host drift ----------------------------------------------------------------------

def probe(ctx):
    out = subprocess.run([ctx.bins["trace"], "probe", "--reps", "3"], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)["probe_ms"]


def cpu_times():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return sum(fields), fields[7]


# ---- one run --------------------------------------------------------------------------

class Context:
    def __init__(self, workload, seed, seconds, trace, scale, bins, work):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.scale, self.bins, self.work = scale, bins, work
        self.dst = str(work / "dst.wdc")
        self.tles = str(work / "catalog.tle")
        self.requests = work / "requests.txt"
        self.tally = Tally()
        self.reference = None
        self.digests = {}
        self.children = []
        self.samples = {}
        self.measure_start = None
        self.reload_busy_share = None


def run_once(workload, seed, seconds, trace, scale, trace_reps=TRACE_REPS):
    check_tree()
    bins = build()
    WORK_BASE.mkdir(exist_ok=True)
    work = WORK_BASE / f"{workload}-s{seed}-t{trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = Context(workload, seed, seconds, trace, scale, bins, work)
    try:
        ctx.requests.write_text("\n".join(MIX) + "\n")
        cpu_start = cpu_times()
        probe_start = probe(ctx)
        make_inputs(ctx)
        e2e = WORKLOAD_FN[workload](ctx)
        if trace:
            auto = replay(ctx, 0, trace_reps, ("analyze", "simulate", "serve"), "auto")
            check_replay(ctx, replay_digests(ctx))
            serial = replay(ctx, 1, trace_reps, ("analyze", "serve"), "serial")
            check_replay(ctx, replay_digests(ctx))
            wire_ms = ping_probe(ctx)
        else:
            phase = "serve" if workload == "serve_mix" else "analyze"
            replay(ctx, 0, 1, (phase,), "check")
            check_replay(ctx, replay_digests(ctx))
        probe_end = probe(ctx)
        cpu_end = cpu_times()
        total = cpu_end[0] - cpu_start[0]
        steal = (cpu_end[1] - cpu_start[1]) / total if total > 0 else 0.0
        host = {"host.probe_start_ms": probe_start, "host.probe_end_ms": probe_end,
                "host.steal_share": steal}
        if trace:
            metrics = per_layer_metrics(ctx, e2e, auto, serial, wire_ms)
            metrics.update(host)
            units = PER_LAYER_UNITS
        else:
            metrics = e2e
            units = dict(END_TO_END)
        record = {
            "correct": ctx.tally.failed == 0,
            "attempted": ctx.tally.attempted,
            "failed": ctx.tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        # What explains a run without being a metric of the program: the host
        # drift, the sample counts and, on serve_mix, the share of the run
        # with a reload in flight.
        context = {**host, "samples": ctx.samples,
                   "measured_s": time.perf_counter() - ctx.measure_start}
        if ctx.reload_busy_share is not None:
            context["serve.reload_busy_share"] = ctx.reload_busy_share
        RECORDS.mkdir(exist_ok=True)
        with open(RECORDS / "runs.jsonl", "a") as f:
            f.write(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                "trace": trace, "scale": scale, "digests": ctx.digests,
                                "context": context, "end_to_end": e2e,
                                "failures": ctx.tally.reasons, "record": record}) + "\n")
        for reason in ctx.tally.reasons:
            log(f"failed op: {reason}")
        log(f"{workload} seed {seed}: host probe {probe_start:.1f} -> {probe_end:.1f} ms, "
            f"steal {steal:.2%}")
        return record, context
    finally:
        for child in ctx.children:
            with contextlib.suppress(Exception):
                child.stop()
        shutil.rmtree(work, ignore_errors=True)


def smoke():
    """Run every workload once, untraced and traced, at a tiny scale; fail on
    any failed op or on metric names that differ from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        log("BENCHMARK.json workloads differ from run.py's")
        return 1
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            record, _ = run_once(workload, 1, 2, trace, SMOKE_SCALE, trace_reps=1)
            names = list(record["metrics"])
            if sorted(names) != sorted(expected[trace]):
                log(f"{workload} trace {trace}: metric names differ from BENCHMARK.json: "
                    f"{sorted(set(names) ^ set(expected[trace]))}")
                ok = False
            if record["failed"] or not record["correct"] or record["attempted"] < 1:
                log(f"{workload} trace {trace}: {record['failed']} of "
                    f"{record['attempted']} ops failed")
                ok = False
            log(f"smoke {workload} trace {trace}: {record['attempted']} ops, "
                f"{record['failed']} failed")
    log("smoke passed" if ok else "smoke FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-check: every workload once at a tiny scale")
    args = parser.parse_args()
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        record, context = run_once(args.workload, args.seed, args.seconds, args.trace, SCALE)
    except (BenchError, subprocess.CalledProcessError, OSError) as error:
        log(f"error: {error}")
        return 1
    # The record's keys are fixed, so the run's context goes on the line before it.
    print(json.dumps({"run_context": context}))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
