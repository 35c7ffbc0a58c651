"""Per-layer metrics of a traced run (run.py --trace 1).

Three sources outside the program: sledged's access log and /admin/stats
(plus its shutdown report), /proc/<pid> of the server, and pb_probe, which
times single layers' public functions on the workload's own inputs. Each
ratio comes with its base. A metric a workload does not exercise (e.g. the
invoke broker on ping) reads 0.
"""

import json
import statistics

import workloads as wl

APPS = wl.APPS
PROBED = ["ping", "spin", "echo"] + APPS
REGISTERED = ["ping", "spin", "echo", "relay"] + wl.CHAINS + APPS

# name -> (unit, better); the order is the order of the output.
METRICS = {
    "listener.front_door_p50_us": ("us", "lower"),
    "dispatcher.queue_wait_p50_us": ("us", "lower"),
    "dispatcher.queue_wait_p99_us": ("us", "lower"),
    "sandbox.startup_p50_us": ("us", "lower"),
    "sandbox.startup_pooled_p50_us": ("us", "lower"),
    "sandbox.startup_cold_p50_us": ("us", "lower"),
    "sandbox.startup_pooled_count": ("count", "higher"),
    "sandbox.startup_cold_count": ("count", "lower"),
    "sandbox.create_us": ("us", "lower"),
    "engine.exec_cpu_p50_us": ("us", "lower"),
    **{"engine.exec_cpu_p50_us." + a: ("us", "lower") for a in APPS},
    **{"engine.run_us." + m: ("us", "lower") for m in PROBED},
    "worker.response_write_p50_us": ("us", "lower"),
    "io_loop.io_wait_p50_us": ("us", "lower"),
    "invoke.handoff_p50_us": ("us", "lower"),
    "invoke.handoff_p99_us": ("us", "lower"),
    "invoke.local_ratio": ("ratio", "higher"),
    "invoke.invokes": ("count", "lower"),
    "resource_pool.transfer_hit_ratio": ("ratio", "higher"),
    "resource_pool.transfer_acquires": ("count", "lower"),
    "resource_pool.hit_ratio": ("ratio", "higher"),
    "resource_pool.acquires": ("count", "lower"),
    "scheduler.preemptions_per_req": ("count/req", "lower"),
    "scheduler.dispatches_per_req": ("count/req", "lower"),
    "process.requests": ("count", "higher"),
    "process.ctx_switches_per_req": ("count/req", "lower"),
    "process.read_syscalls_per_req": ("count/req", "lower"),
    "process.write_syscalls_per_req": ("count/req", "lower"),
    "process.minor_faults_per_req": ("count/req", "lower"),
    "http.parse_ns": ("ns", "lower"),
    "dispatcher.push_fetch_ns": ("ns", "lower"),
    "resource_pool.acquire_release_ns": ("ns", "lower"),
    **{"setup.register_module_ms." + m: ("ms", "lower") for m in REGISTERED},
    "loadgen.late_p99_us": ("us", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.overhead_base_cpu_us": ("us", "lower"),
}


def median(values):
    return statistics.median(values) if values else 0.0


def p99(values):
    if not values:
        return 0.0
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(0.99 * len(s) + 0.5) - 1))]


def open_log_lines(res, access_log):
    """Access-log lines (parsed) written during the open-loop segments."""
    lines = access_log.read_text().split("\n")
    out = []
    for name, ph in sorted(res.phases.items()):
        if name.startswith("open"):
            out += [json.loads(l) for l in
                    lines[ph.pre["log_lines"]:ph.post["log_lines"]]]
    return out


def busiest(stats, key):
    """Summary of histogram `key` from the module that recorded most."""
    mods = [m[key] for m in stats["modules"].values()]
    return max(mods, key=lambda h: h["count"]) if mods else {"count": 0}


def open_phases(res):
    return [ph for name, ph in sorted(res.phases.items())
            if name.startswith("open")]


def per_layer(work, base, res, probe, problems):
    m = {}
    opens = open_phases(res)
    measured = {wl.LOG_MODULE.get(t.module, t.module)
                for ph in opens for t in
                (work.catalog[o[1]] for o in ph.ops if o[0] == 0)}
    lines = open_log_lines(res, res.access_log)
    mine = [l for l in lines if l["module"] in measured]

    # Client vs server: the front door is what the client waits for beyond
    # the server's own creation -> last-byte-written span.
    sent = [(o[4] - o[3]) / 1e3 for ph in opens for o in ph.ops if o[0] == 0]
    m["listener.front_door_p50_us"] = (
        median(sent) - median([l["e2e_us"] for l in mine]))
    client_sum = sum((o[4] - o[3]) / 1e3 for ph in opens for o in ph.ops)
    server_sum = sum(l["e2e_us"] for l in lines)
    if server_sum > client_sum:
        problems.append("server e2e sum %.0f us exceeds client sum %.0f us" %
                        (server_sum, client_sum))

    m["dispatcher.queue_wait_p50_us"] = median([l["queue_wait_us"]
                                                for l in mine])
    m["dispatcher.queue_wait_p99_us"] = p99([l["queue_wait_us"] for l in mine])
    m["sandbox.startup_p50_us"] = median([l["startup_us"] for l in mine])
    final = res.final_stats
    for tier in ("pooled", "cold"):
        h = busiest(final, "startup_" + tier)
        m["sandbox.startup_%s_p50_us" % tier] = h.get("p50_ns", 0) / 1e3
        m["sandbox.startup_%s_count" % tier] = sum(
            x["startup_" + tier]["count"] for x in final["modules"].values())
    m["sandbox.create_us"] = probe["create_us"]

    m["engine.exec_cpu_p50_us"] = median([l["exec_cpu_us"] for l in mine])
    for a in APPS:
        m["engine.exec_cpu_p50_us." + a] = median(
            [l["exec_cpu_us"] for l in lines if l["module"] == a])
    for mod in PROBED:
        m["engine.run_us." + mod] = probe["run_us"].get(mod, 0.0)
    if probe["run_mismatches"]:
        problems.append("probe: %d run_serverless responses differ from the "
                        "expected bytes" % probe["run_mismatches"])

    m["worker.response_write_p50_us"] = median([l["response_write_us"]
                                                for l in mine])
    m["io_loop.io_wait_p50_us"] = median([l["io_wait_us"] for l in lines
                                          if l["io_wait_us"] > 0])
    h = busiest(final, "invoke_handoff")
    m["invoke.handoff_p50_us"] = h.get("p50_ns", 0) / 1e3
    m["invoke.handoff_p99_us"] = h.get("p99_ns", 0) / 1e3
    invokes = final["totals"]["invokes"]
    local = sum(x["invoke_local"] for x in final["modules"].values())
    m["invoke.local_ratio"] = local / invokes if invokes else 0.0
    m["invoke.invokes"] = invokes
    rep = res.report
    xfer = rep.get("xfer_hits", 0) + rep.get("xfer_misses", 0)
    m["resource_pool.transfer_hit_ratio"] = (rep["xfer_hits"] / xfer
                                             if xfer else 0.0)
    m["resource_pool.transfer_acquires"] = xfer
    tot = final["totals"]
    acquires = tot["pool_hits"] + tot["pool_misses"]
    m["resource_pool.hit_ratio"] = (tot["pool_hits"] / acquires
                                    if acquires else 0.0)
    m["resource_pool.acquires"] = acquires

    n = len(lines)
    m["scheduler.preemptions_per_req"] = (sum(l["preempts"] for l in lines) /
                                          n if n else 0.0)
    m["scheduler.dispatches_per_req"] = (sum(l["dispatches"] for l in lines) /
                                         n if n else 0.0)
    reqs = sum(ph.completed() for ph in opens)
    per_req = lambda key: sum(ph.delta(key) for ph in opens) / reqs
    m["process.requests"] = reqs
    m["process.ctx_switches_per_req"] = per_req("ctx_switches")
    m["process.read_syscalls_per_req"] = per_req("syscr")
    m["process.write_syscalls_per_req"] = per_req("syscw")
    m["process.minor_faults_per_req"] = per_req("minflt")

    m["http.parse_ns"] = probe["parse_ns"]
    m["dispatcher.push_fetch_ns"] = probe["push_fetch_ns"]
    m["resource_pool.acquire_release_ns"] = probe["acquire_release_ns"]
    for mod in REGISTERED:
        m["setup.register_module_ms." + mod] = probe["register_module_ms"].get(
            mod, 0.0)

    base_opens = open_phases(base)
    m["loadgen.late_p99_us"] = p99([(o[3] - o[2]) / 1e3 for ph in base_opens
                                    for o in ph.ops if o[0] == 0])
    cpu = lambda phs: (sum(ph.delta("cpu_ns") for ph in phs) / 1e3 /
                       sum(ph.completed() for ph in phs))
    m["trace.overhead_base_cpu_us"] = cpu(base_opens)
    m["trace.overhead_pct"] = 100.0 * (cpu(opens) / cpu(base_opens) - 1.0)
    return {k: (float(m[k]), METRICS[k][0]) for k in METRICS}
