#!/usr/bin/env python3
"""End-to-end benchmark of sledged.

    python3 perfbench/run.py --workload ping --seed 1 --seconds 10 --trace 0

Builds the repository unchanged (plus the benchmark's own load generator
and layer probe), launches `sledged` as its own process on a free loopback
port, drives it with pb_loadgen, checks every response and prints one JSON
object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 runs the workload once
untraced and once with the server's access log on, runs the layer probe,
and reports the per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # nothing but .bench_build is written
sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads as wl  # noqa: E402

NPROC = os.cpu_count() or 1
# Server and client share the host: 2 workers + 1 listener shard + the
# single-threaded load generator fill 4 cores.
WORKERS = max(1, min(2, NPROC // 2))
LISTENERS = 1
MAX_CONNS = max(1, min(4, NPROC))

# Per workload: warm-up requests, the closed loop's connections and nominal
# rate (sizes its request count; the rate actually reached is measured), and
# the open loop's offered rate. Counts follow from --seconds alone, never
# from how fast the program runs.
PROFILE = {
    "ping":        dict(warmup=4000, closed_conns=2, closed_rps=25000,
                        open_rps=5000),
    # A low offered rate keeps queueing from amplifying host noise in p50;
    # the open loop runs 1.2 x --seconds to get eight p99 windows.
    "edge_apps":   dict(warmup=400, closed_conns=2, closed_rps=1400,
                        closed_share=0.2, open_rps=500, open_share=1.2,
                        segments=4),
    "chains":      dict(warmup=3000, closed_conns=2, closed_rps=15000,
                        open_rps=3000),
    # Pings wait out spin quanta (~7 ms each), so two ping connections
    # carry ~280 req/s at most: the open loop runs longer than --seconds at
    # a lower rate to collect three windows of 1000 samples.
    "preempt_mix": dict(warmup=200, spin_conns=2, ping_conns=2,
                        closed_rps=280, open_rps=160, closed_share=0.15,
                        open_share=1.25, segments=1),
}
CLOSED_ROUNDS = 8      # closed-loop phases; throughput is their median
CLOSED_SHARE = 0.35    # default share of --seconds, at the nominal rate
OPEN_SHARE = 0.55      # default share of --seconds, at the offered rate
# The open loop runs as this many back-to-back segments (each with its own
# /proc snapshots); CPU per request is the median of the segments' figures.
SEGMENTS = 8
# Latency percentiles are taken per window of this many consecutive
# requests (>= 10 samples beyond p99). p50 is the median over the windows.
# p99 is the smallest window p99: the host's own stalls (vCPUs taken away
# for 5-30 ms, seen with nothing but a sleeping timer loop running) only
# ever add to a window's tail, in some runs to most windows, while a slower
# program path raises every window.
WINDOW = 1000

CHILDREN = []          # every process this run started and has not reaped


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def spawn(args, **kw):
    proc = subprocess.Popen(args, **kw)
    CHILDREN.append(proc)
    return proc


def reap(proc, timeout=None):
    """Waits for proc (killing it after `timeout` s, or at once if None)."""
    if proc.poll() is None and timeout is not None:
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    if proc in CHILDREN:
        CHILDREN.remove(proc)
    return proc.returncode


def run_checked(args, log_file, env, timeout):
    with open(log_file, "ab") as out:
        proc = spawn(args, stdout=out, stderr=subprocess.STDOUT, env=env)
        if reap(proc, timeout) != 0:
            raise BenchError("%s failed (see %s)" % (Path(args[0]).name,
                                                     log_file))


# ---- build --------------------------------------------------------------------

def build(build_dir, env):
    cmake_dir = build_dir / "cmake"
    log_file = build_dir / "build.log"
    if not (cmake_dir / "CMakeCache.txt").exists():
        run_checked(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], log_file, env, 600)
    run_checked(["cmake", "--build", str(cmake_dir), "--target", "perfbench",
                 "-j", str(NPROC)], log_file, env, 840)
    return {
        "sledged": cmake_dir / "sledge/src/sledge/sledged",
        "loadgen": cmake_dir / "pb_loadgen",
        "probe": cmake_dir / "pb_probe",
        "twins": cmake_dir / "sledge/src/apps",
    }


# ---- inputs ---------------------------------------------------------------------

def module_source(name):
    if name == "spin":
        return HERE / "spin.mc"
    return ROOT / "src/apps/wasm_src" / (name + ".mc")


def answer_with_twins(work, bins, env, problems):
    """Expected edge-app outputs from the native twins (outside any timing);
    each twin output must also pass the app's own check."""
    for t in work.catalog:
        if t.app is None:
            continue
        proc = spawn([str(bins["twins"] / ("fn_" + t.app))],
                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        out, _ = proc.communicate(t.body, timeout=60)
        if reap(proc) != 0:
            raise BenchError("native twin fn_%s failed" % t.app)
        err = t.check(t.body, out)
        if err:
            problems.append("twin " + err)
        t.expected = out


def run_probe(bins, work, run_dir, env):
    """pb_probe on the workload's catalog and modules (after the servers)."""
    out = run_dir / "probe.json"
    args = [str(bins["probe"]), str(run_dir / "catalog.bin"), str(out)]
    args += ["%s=%s" % (m, module_source(m)) for m in work.modules]
    run_checked(args, run_dir / "probe.log", env, 120)
    return json.loads(out.read_text())


def write_catalog(work, path):
    blob = lambda b: struct.pack("<I", len(b)) + b
    with open(path, "wb") as f:
        f.write(b"PBCAT1\n" + struct.pack("<I", len(work.catalog)))
        for t in work.catalog:
            f.write(blob(("/" + t.module).encode()) + blob(t.body) +
                    blob(t.expected))


def plan_phases(work, seconds):
    """[(phase, [(kind, conns, [(template, due_ns)])])] for one server run."""
    prof = PROFILE[work.name]
    closed_share = prof.get("closed_share", CLOSED_SHARE)
    open_share = prof.get("open_share", OPEN_SHARE)
    closed = lambda n: [(i, 0) for i in work.rounds(n)]
    round_len = len(work.round())
    whole = lambda ops: max(1, int(ops) // round_len)
    phases = []
    if work.name == "preempt_mix":
        # Pings on their own connections; every spin connection keeps one
        # CPU-bound request in flight for as long as the pings last.
        spins = lambda: ("background", prof["spin_conns"],
                         [(i, 0) for i in work.spins(wl.VARIANTS * 4)])
        phases.append(("warmup", [("closed", 1, closed(prof["warmup"])),
                                  spins()]))
        per_round = whole(prof["closed_rps"] * closed_share * seconds /
                          CLOSED_ROUNDS)
        for r in range(CLOSED_ROUNDS):
            phases.append(("closed%d" % r, [
                ("closed", prof["ping_conns"], closed(per_round)),
                spins()]))
        n_open = whole(prof["open_rps"] * open_share * seconds)
        due = work.arrivals(n_open, prof["open_rps"])
        phases.append(("open0", [
            ("open", prof["ping_conns"], list(zip(work.rounds(n_open), due))),
            spins()]))
        return phases
    phases.append(("warmup", [("closed", prof["closed_conns"],
                               closed(whole(prof["warmup"])))]))
    per_round = whole(prof["closed_rps"] * closed_share * seconds /
                      CLOSED_ROUNDS)
    for r in range(CLOSED_ROUNDS):
        phases.append(("closed%d" % r, [
            ("closed", prof["closed_conns"], closed(per_round))]))
    segments = prof.get("segments", SEGMENTS)
    n_open = whole(prof["open_rps"] * open_share * seconds / segments)
    for k in range(segments):
        ops = work.rounds(n_open)
        due = work.arrivals(len(ops), prof["open_rps"])
        phases.append(("open%d" % k,
                       [("open", MAX_CONNS, list(zip(ops, due)))]))
    return phases


def write_plan(path, port, pid, catalog, outdir, access_log, phases):
    lines = ["port %d" % port, "pid %d" % pid, "catalog %s" % catalog,
             "outdir %s" % outdir, "accesslog %s" % (access_log or "-")]
    for name, streams in phases:
        lines.append("phase " + name)
        for kind, conns, ops in streams:
            lines.append("stream %s %d %d" % (kind, conns, len(ops)))
            lines.extend("%d %d" % op for op in ops)
        lines.append("end")
    Path(path).write_text("\n".join(lines) + "\n")


# ---- the server -------------------------------------------------------------------

class Server:
    """One sledged process: spawned, set up, observed, stopped and reaped."""

    def __init__(self, bins, work, run_dir, env, access_log):
        cfg = {
            "port": 0, "workers": WORKERS, "num_listeners": LISTENERS,
            "admin_endpoint": True, "access_log": str(access_log or ""),
            "modules": [{"name": m, "minicc": str(module_source(m))}
                        for m in work.modules],
        }
        cfg_path = run_dir / ("sledged%s.json" % ("-traced" if access_log
                                                  else ""))
        cfg_path.write_text(json.dumps(cfg, indent=1))
        self.stderr_path = run_dir / "sledged.stderr"
        t0 = time.perf_counter()
        with open(self.stderr_path, "ab") as err:
            self.proc = spawn([str(bins["sledged"]), str(cfg_path)],
                              stdout=subprocess.PIPE, stderr=err, env=env)
        self.pid = self.proc.pid
        self.port = self._wait_port(deadline=time.monotonic() + 120)
        first = work.catalog[work.round()[0]]
        status, body = self.post(first.module, first.body)
        self.setup_s = time.perf_counter() - t0
        if status != 200 or body != first.expected:
            raise BenchError("first request to /%s answered %d" %
                             (first.module, status))

    def _wait_port(self, deadline):
        buf = b""
        fd = self.proc.stdout.fileno()
        while time.monotonic() < deadline:
            ready, _, _ = select.select([fd], [], [], 0.5)
            if ready:
                chunk = os.read(fd, 4096)
                if not chunk:
                    break
                buf += chunk
                for line in buf.split(b"\n"):
                    if line.startswith(b"sledged on 127.0.0.1:"):
                        return int(line.split(b":")[1].split()[0])
            elif self.proc.poll() is not None:
                break
        raise BenchError("sledged did not start (see %s)" % self.stderr_path)

    def post(self, module, body):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("POST", "/" + module, body=body)
            resp = conn.getresponse()
            return resp.status, resp.read()
        finally:
            conn.close()

    def stats(self):
        import http.client
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/admin/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def settled_stats(self):
        """/admin/stats once nothing is in flight (or after 2 s)."""
        deadline = time.monotonic() + 2.0
        while True:
            s = self.stats()
            if s["inflight"] == 0 or time.monotonic() > deadline:
                return s
            time.sleep(0.01)

    def peak_rss_mb(self):
        for line in Path("/proc/%d/status" % self.pid).read_text().split("\n"):
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for sledged")

    def stop(self):
        """SIGTERM (graceful drain), then the shutdown report."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            out = b""
        code = reap(self.proc)
        return code, out.decode(errors="replace")


def parse_report(text):
    """Counters from sledged's shutdown report (pool and transfer lines)."""
    rep = {}
    for line in text.split("\n"):
        words = line.split()
        if line.startswith("xfer:"):
            hit, miss = words[1].split("=")[1].split("/")
            rep["xfer_hits"], rep["xfer_misses"] = int(hit), int(miss)
            rep["xfer_outstanding"] = int(words[2].split("=")[1])
    return rep


# ---- one server run ------------------------------------------------------------------

class Phase:
    def __init__(self, outdir, name):
        base = outdir / name
        self.name = name
        self.ops = []       # (stream, template, due, send, done, status, ok)
        for line in (base.with_suffix(".req")).read_text().split("\n"):
            if line:
                self.ops.append(tuple(int(x) for x in line.split()))
        kv = lambda p: {k: int(v) for k, v in
                        (l.split() for l in p.read_text().split("\n") if l)}
        self.pre = kv(base.with_suffix(".pre"))
        self.post = kv(base.with_suffix(".post"))
        self.stats0 = json.loads(base.with_suffix(".stats0.json").read_text())
        self.stats1 = json.loads(base.with_suffix(".stats1.json").read_text())

    def delta(self, key):
        return self.post[key] - self.pre[key]

    def completed(self):
        return sum(1 for o in self.ops if o[5] != 0)


def module_deltas(phase):
    before = phase.stats0["modules"]
    return {name: m["requests"] - before[name]["requests"]
            for name, m in phase.stats1["modules"].items()}


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.5) - 1))]


class RunResult:
    pass


def serve_once(bins, work, run_dir, env, seconds, traced, problems):
    """Spawns sledged, runs the plan, checks and reconciles; returns data."""
    tag = "traced" if traced else "plain"
    outdir = run_dir / tag
    outdir.mkdir(exist_ok=True)
    access_log = (outdir / "access.log") if traced else None
    if access_log and access_log.exists():
        access_log.unlink()
    res = RunResult()
    res.access_log = access_log
    server = Server(bins, work, run_dir, env, access_log)
    try:
        phases = plan_phases(work, seconds)
        plan = outdir / "plan.txt"
        write_plan(plan, server.port, server.pid, run_dir / "catalog.bin",
                   outdir, access_log, phases)
        lg = spawn([str(bins["loadgen"]), str(plan)], env=env)
        if reap(lg, timeout=150) != 0:
            raise BenchError("pb_loadgen failed")
        res.phases = {name: Phase(outdir, name) for name, _ in phases}
        final = server.settled_stats()
        res.peak_rss_mb = server.peak_rss_mb()
        res.setup_s = server.setup_s
        res.final_stats = final
    finally:
        code, report = server.stop()
    res.report = parse_report(report)
    if code != 0:
        problems.append("sledged exited with %d" % code)
    reconcile(work, res, final, access_log, problems)
    return res


def expected_module_counts(work, phase):
    """Sandboxes per module that a phase's completed requests imply."""
    want = {}
    for o in phase.ops:
        if o[5] != 200:
            continue
        head = work.catalog[o[1]].module
        for m in wl.CHAIN_STAGES.get(head, [head]):
            want[m] = want.get(m, 0) + 1
    return want


def reconcile(work, res, final, access_log, problems):
    """Totals reached by independent paths must agree."""
    log = access_log.read_text().split("\n") if access_log else []
    for name, ph in res.phases.items():
        deltas = {m: d for m, d in module_deltas(ph).items() if d}
        want = expected_module_counts(work, ph)
        if deltas != want:
            problems.append("%s: /admin/stats requests %r, client implies %r"
                            % (name, deltas, want))
        invokes = (ph.stats1["totals"]["invokes"] -
                   ph.stats0["totals"]["invokes"])
        want_inv = sum(wl.CHAIN_INVOKES.get(work.catalog[o[1]].module, 0)
                       for o in ph.ops if o[5] == 200)
        if invokes != want_inv:
            problems.append("%s: invokes %d, chain structure implies %d" %
                            (name, invokes, want_inv))
        if access_log is not None:
            logged = {}
            for line in log[ph.pre["log_lines"]:ph.post["log_lines"]]:
                mod = json.loads(line)["module"]
                logged[mod] = logged.get(mod, 0) + 1
            want_log = {}
            for o in ph.ops:
                if o[5] == 200:
                    mod = work.catalog[o[1]].module
                    mod = wl.LOG_MODULE.get(mod, mod)
                    want_log[mod] = want_log.get(mod, 0) + 1
            if logged != want_log:
                problems.append("%s: access-log lines %r, client counted %r"
                                % (name, logged, want_log))
    if final["inflight"] != 0:
        problems.append("inflight is %d after the run" % final["inflight"])
    if res.report.get("xfer_outstanding", -1) != 0:
        problems.append("transfer buffers outstanding after the run: %r" %
                        res.report.get("xfer_outstanding"))


def count_ops(res):
    """(attempted, failed, wrong): failed counts every request that did not
    get a 200 with the expected body; wrong counts the 200s among them."""
    attempted = failed = wrong = 0
    for ph in res.phases.values():
        for o in ph.ops:
            attempted += 1
            if o[5] != 200 or not o[6]:
                failed += 1
                wrong += o[5] == 200
    return attempted + 1, failed, wrong  # + the set-up request


# ---- metrics -------------------------------------------------------------------------

def end_to_end(res):
    m = {"setup_s": (res.setup_s, "s")}
    rates = []
    for r in range(CLOSED_ROUNDS):
        ops = [o for o in res.phases["closed%d" % r].ops if o[0] == 0]
        span = max(o[4] for o in ops) - min(o[3] for o in ops)
        rates.append(sum(1 for o in ops if o[5] == 200 and o[6]) /
                     (span / 1e9))
    m["throughput_rps"] = (statistics.median(rates), "req/s")
    p50, p99 = [], []
    for win in latency_windows(res):
        p50.append(quantile(win, 0.50))
        p99.append(quantile(win, 0.99))
    cpu = [ph.delta("cpu_ns") / 1e3 / ph.completed()
           for ph in layers.open_phases(res)]
    m["latency_p50_ms"] = (statistics.median(p50), "ms")
    m["latency_p99_ms"] = (min(p99), "ms")
    m["server_cpu_us_per_req"] = (statistics.median(cpu), "us")
    m["server_peak_rss_mb"] = (res.peak_rss_mb, "MB")
    return m


def latency_windows(res):
    """Open-loop latencies (ms, from due time) in windows of >= WINDOW
    consecutive requests of the measured stream; a short tail joins the
    window before it."""
    wins = []
    for ph in layers.open_phases(res):
        lat = [(o[4] - o[2]) / 1e6
               for o in sorted(ph.ops, key=lambda o: o[2]) if o[0] == 0]
        if len(lat) < WINDOW:
            raise BenchError("%s has %d samples; p99 needs %d" %
                             (ph.name, len(lat), WINDOW))
        n = len(lat) // WINDOW
        wins += [lat[k * WINDOW:(k + 1) * WINDOW] for k in range(n - 1)]
        wins.append(lat[(n - 1) * WINDOW:])
    return wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=sorted(PROFILE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    bins = build(build_dir, env)

    # Only the latest run's files are kept (for inspection).
    runs = build_dir / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    run_dir = runs / ("%s-%d" % (args.workload, args.seed))
    run_dir.mkdir(parents=True)
    problems = []
    work = wl.Workload(args.workload, args.seed)
    answer_with_twins(work, bins, env, problems)
    write_catalog(work, run_dir / "catalog.bin")

    if args.trace == 0:
        res = serve_once(bins, work, run_dir, env, args.seconds, False,
                         problems)
        metrics = end_to_end(res)
        attempted, failed, wrong = count_ops(res)
    else:
        base = serve_once(bins, work, run_dir, env, args.seconds, False,
                          problems)
        res = serve_once(bins, work, run_dir, env, args.seconds, True,
                         problems)
        probe = run_probe(bins, work, run_dir, env)
        metrics = layers.per_layer(work, base, res, probe, problems)
        a0, f0, w0 = count_ops(base)
        a1, f1, w1 = count_ops(res)
        attempted, failed, wrong = a0 + a1, f0 + f1, w0 + w1
    if wrong:
        problems.append("%d responses with a wrong body" % wrong)
    for p in problems:
        log("check failed: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


def on_signal(signum, _frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    signal.signal(signal.SIGHUP, on_signal)
    code = 0
    try:
        main()
    except BenchError as e:
        log("error: %s" % e)
        code = 1
    finally:
        for proc in list(CHILDREN):
            reap(proc)
    sys.exit(code)
