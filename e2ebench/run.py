#!/usr/bin/env python3
"""End-to-end benchmark of localcert: four workloads, driven from outside.

    python3 e2ebench/run.py --workload W --seed N --seconds T --trace 0|1

run from the root of a checkout.  It builds the probe (e2ebench/probe.ml)
with dune, makes the workload's inputs from the seed, runs the workload
for about T seconds, checks every output, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with the program's telemetry off; with --trace 1 they are the
per-layer metrics, from a separate run with telemetry and the tracer on.

    python3 e2ebench/run.py --workload W --steady K [--seed N] [--save F] [--against F]

runs the workload K times on seeds N..N+K-1 and prints, per metric, the
median, the quartiles and their spread relative to the median, flagging
any spread beyond the metric's bound (and, with --against, any median
worse than a saved set's by more than the bound).

    python3 e2ebench/run.py --selfcheck

runs the benchmark's own checks (see NOTES.md).

Workloads, metrics and the reasons behind each choice are in NOTES.md.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
PROBE = os.path.join(ROOT, "_build", "default", "e2ebench", "probe.exe")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Workload constants.  They are part of the benchmark's definition: a
# change to any of them is a change of the benchmark, never of a run.
CERTIFY_N = 1 << 20  # certify-cold: random tree vertices
CERTIFY_SCHEME = "spanning"
CERTIFY_MIN_OPS = 3
READY_LAUNCHES = 30  # certify-cold: process starts timed for setup_s

SERVE_N = 4096  # serving: vertices of each tree
# (scheme, tree seed, share of requests in sixteenths).  The trees are
# fixed: a tree's shape alone moved compile plus check time by 25%
# between seeds, so seeded trees made the run-to-run spread a property
# of which four trees were drawn.  The seed drives the op order and the
# flips.
SERVE_MIX = [("spanning", 101, 8), ("acyclic", 102, 4), ("lcl:mis", 103, 2),
             ("spanning", 104, 2)]
SERVE_FLIPS = 16  # distinct (vertex, bit) flips; one request in 16 flips
SERVE_OPS = 8192  # op list length, cycled
SERVE_SETUPS = 5  # fresh servers booted and warmed per run, for setup_s
WINDOW_S = 5.0  # serving latency and throughput are taken per window
SLO_MS = {"certify-cold": 10000.0, "serve-hot": 20.0,
          "simulate-churn": 4000.0}  # latency limit of slo_frac

SIM_N = 65536
SIM_SCHEME = "lcl:mis"
SIM_ROUNDS = 8
SIM_PLAN = "deledge:0.0005,addedge:0.0005,corrupt:0.001,until:3"
SIM_SETUPS = 5
SIM_MIN_OPS = 3

# Sizes of a --smoke run (self-checks only; never used for measurement).
SMOKE = {"certify_n": 1 << 14, "serve_n": 256, "sim_n": 2048}

WORKLOADS = ["certify-cold", "serve-hot", "simulate-churn"]


class ProgramFault(Exception):
    """The program under test failed an op (a crash, a dropped server)."""


# ---------------------------------------------------------------- probe

def build():
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(["dune", "build", "--root", ROOT, "./e2ebench/probe.exe"],
                       cwd=ROOT, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0 or not os.path.exists(PROBE):
        sys.stderr.write(r.stdout[-4000:])
        sys.exit("e2ebench: building the probe failed")


def results(text):
    return [json.loads(l[len("RESULT "):]) for l in text.splitlines()
            if l.startswith("RESULT ")]


def probe(*args):
    """Run a probe subcommand to completion; its single result."""
    r = subprocess.run([PROBE, *map(str, args)], stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, timeout=170)
    res = results(r.stdout)
    if r.returncode != 0 or not res:
        raise ProgramFault(f"probe {args[0]} exited {r.returncode}: "
                           f"{r.stderr.strip()[-500:]}")
    return res[-1]


class Proc:
    """A long-lived probe process spoken to line by line."""

    def __init__(self, *args):
        self.p = subprocess.Popen([PROBE, *map(str, args)], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True)

    def line(self):
        l = self.p.stdout.readline()
        if not l:
            raise ProgramFault(f"probe process exited {self.p.wait()}")
        return l

    def result(self):
        while True:
            l = self.line()
            if l.startswith("RESULT "):
                r = json.loads(l[len("RESULT "):])
                if "wrong" in r:
                    raise ProgramFault(r["wrong"])
                return r

    def ask(self, cmd):
        self.p.stdin.write(cmd + "\n")
        self.p.stdin.flush()
        return self.result()

    def stop(self, sig=None):
        """End the process (SIGTERM drains a server); its last result."""
        if self.p.poll() is None:
            if sig is None:
                self.p.stdin.close()
            else:
                self.p.send_signal(sig)
        out = self.p.stdout.read()
        try:
            self.p.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.p.kill()
            self.p.wait()
        res = results(out)
        return res[-1] if res else None


# --------------------------------------------------------------- inputs

def tree_file(n, seed):
    path = os.path.join(WORK, f"tree-{n}-{seed}.txt")
    probe("gen-tree", "--n", n, "--seed", seed, "--out", path)
    return path


def serve_ops(seed, n):
    """The serving op list, as the text the client reads."""
    rng = random.Random(seed * 7919 + 17)
    reqs = [(s, f"random-tree:{n}:{t}", -1, -1) for s, t, _ in SERVE_MIX]
    # flips ride the hottest spec; the server takes the bit modulo the
    # certificate's length
    reqs += [(reqs[0][0], reqs[0][1], rng.randrange(n), rng.randrange(64))
             for _ in range(SERVE_FLIPS)]
    classes = [i for i, (_, _, share) in enumerate(SERVE_MIX) for _ in range(share)]
    ops = [len(SERVE_MIX) + rng.randrange(SERVE_FLIPS) if rng.randrange(16) == 0
           else rng.choice(classes) for _ in range(SERVE_OPS)]
    lines = [f"requests {len(reqs)}"] + [f"{s} {g} {v} {b}" for s, g, v, b in reqs]
    lines += [f"ops {len(ops)}"] + [str(k) for k in ops]
    return "\n".join(lines) + "\n"


def inputs(workload, seed, smoke=False):
    """The workload's inputs for this seed, as files; the op list is
    part of them."""
    if workload == "certify-cold":
        return [tree_file(SMOKE["certify_n"] if smoke else CERTIFY_N, seed)]
    if workload == "simulate-churn":
        return [tree_file(SMOKE["sim_n"] if smoke else SIM_N, seed)]
    text = serve_ops(seed, SMOKE["serve_n"] if smoke else SERVE_N)
    path = os.path.join(WORK, f"ops-{workload}-{seed}.txt")
    with open(path, "w") as f:
        f.write(text)
    return [path]


def clean_inputs():
    """Inputs are remade from the seed; a 2^20-vertex tree is 15 MB."""
    for f in os.listdir(WORK):
        if f.startswith(("tree-", "ops-")):
            os.remove(os.path.join(WORK, f))


def digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------- stats

median = statistics.median


def p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[8] if len(xs) > 1 else xs[0]


def windows(sent_ms, values, seconds):
    """[values] grouped by the window their request was sent in: whole
    windows of WINDOW_S (or of the whole run, if shorter), keeping those
    with 100 samples or more, enough for a p90.  A median over windows
    moves with the program, not with one stall of a shared host."""
    length = min(WINDOW_S, seconds)
    groups = [[] for _ in range(int(seconds // length))]
    for t, v in zip(sent_ms, values):
        i = int(t / 1e3 // length)
        if i < len(groups):
            groups[i].append(v)
    return [g for g in groups if len(g) >= 100] or [g for g in groups if g]


def layer_ms(trace_path, root):
    """Per-layer totals of one traced op from its Perfetto trace: the
    durations of the slices directly inside the [root] slice, and the
    root slice's own duration (all ms)."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    stack, totals, root_ms = [], {}, 0.0
    for e in events:
        if e.get("ph") == "B":
            stack.append((e["name"], float(e["ts"])))
        elif e.get("ph") == "E":
            name, t0 = stack.pop()
            dur = (float(e["ts"]) - t0) / 1e3
            if name == root:
                root_ms += dur
            elif stack and stack[-1][0] == root:
                totals[name] = totals.get(name, 0.0) + dur
    return totals, root_ms


def prom(text):
    """Prometheus exposition text -> {name: value}, labels dropped."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            name = name.split("{")[0].removeprefix("localcert_")
            if "_bucket" not in name:
                out[name] = out.get(name, 0.0) + float(value)
    return out


def calibration_ms():
    """Wall time of a fixed pure-CPU loop, median of 5: how fast the host
    ran this process at that moment.  Reported, never used to scale a
    metric."""
    def once():
        t0 = time.perf_counter()
        s = 0
        for i in range(200_000):
            s += i * i
        return (time.perf_counter() - t0) * 1e3
    return median([once() for _ in range(5)])


def proc_stat():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return sum(fields), (fields[7] if len(fields) > 7 else 0)


# ------------------------------------------------------------ workloads

class Run:
    """What one workload run gathers."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # output checks that failed
        self.e2e = {}
        self.layers = {}
        self.notes = {}

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)


def run_certify(args, r):
    n = SMOKE["certify_n"] if args.smoke else CERTIFY_N
    (path,) = inputs("certify-cold", args.seed, args.smoke)
    ready = []
    for _ in range(READY_LAUNCHES):
        t0 = time.monotonic_ns()
        ready.append((probe("ready")["ready_ns"] - t0) / 1e9)
    ops, deadline = [], time.monotonic() + args.seconds
    last = 0.0
    while r.attempted < CERTIFY_MIN_OPS or time.monotonic() + last <= deadline:
        traced = args.trace and len(ops) % 2 == 0
        trace_out = os.path.join(WORK, f"certify-{len(ops)}.trace.json") if traced else ""
        t0 = time.monotonic()
        r.attempted += 1
        try:
            o = probe("certify", "--file", path, "--scheme", CERTIFY_SCHEME,
                      "--trace-out", trace_out)
        except ProgramFault as e:
            r.failed += 1
            r.check(False, str(e))
            continue
        finally:
            last = time.monotonic() - t0
        good = ("wrong" not in o and o["accepted"] != args.wrong_reference
                and o["rejections"] == 0 and o["n"] == n)
        if not good:
            r.failed += 1
        o["traced"], o["ok"], o["trace_out"] = traced, good, trace_out
        ops.append(o)
    if not ops:
        return
    oks = [o for o in ops if o["ok"]] or ops
    lat = [o["op_ms"] for o in ops]
    r.e2e = {
        "setup_s": median(ready),
        "op_p50_ms": median(lat),
        "op_p90_ms": p90(lat),
        "verts_per_s": n * len(ops) / (sum(lat) / 1e3),
        "req_per_s": len(ops) / (sum(lat) / 1e3),
        "rounds_per_s": len(ops) / (sum(lat) / 1e3),
        "slo_frac": sum(o["ok"] and o["op_ms"] <= SLO_MS["certify-cold"] for o in ops) / len(ops),
        "quiesced_round": 1,
        "cert_bits": max(o["cert_bits"] for o in oks),
        "peak_rss_mb": median([o["peak_rss_mb"] for o in ops]),
    }
    r.notes["ops"] = len(ops)
    if args.trace:
        traced = [o for o in ops if o["traced"]]
        plain = [o for o in ops if not o["traced"]]
        per_op = []
        for o in traced:
            layers, root_ms = layer_ms(o["trace_out"], "certify")
            unattributed = root_ms - sum(layers.values())
            # the slices must partition the op: no overlap, nothing
            # outside the op's own wall time
            r.check(unattributed >= -0.01, f"layer slices exceed the op by {-unattributed} ms")
            r.check(abs(root_ms - o["op_ms"]) <= 0.01 * o["op_ms"],
                    f"traced op {root_ms} ms vs wall {o['op_ms']} ms")
            r.check(o["kernel_reuse"] == 1, "the check sweep recompiled the kernel")
            per_op.append((layers, unattributed, root_ms))
        for key in ["graph.ingest", "core.instance", "core.prove", "util.intern",
                    "engine.compile", "engine.check"]:
            r.layers[key + "_ms"] = median([l.get(key, 0.0) for l, _, _ in per_op])
        r.layers["unattributed_ms"] = median([u for _, u, _ in per_op])
        r.notes["layer_sum_check"] = [
            {"layers_ms": sum(l.values()), "unattributed_ms": u, "op_ms": w}
            for l, u, w in per_op]
        r.layers["util.intern_hit_ratio"] = traced[0]["intern_hit_ratio"]
        r.layers["util.distinct_certs"] = traced[0]["distinct_certs"]
        r.layers["gc.minor_words"] = median([o["minor_words"] for o in ops])
        r.layers["gc.major_collections"] = median([o["major_collections"] for o in ops])
        r.layers["trace.overhead_frac"] = (
            median([o["op_ms"] for o in traced]) / median([o["op_ms"] for o in plain]) - 1
            if plain else 0.0)


def serve_phase(args, r, ops_path, seconds, telemetry, setups):
    """Boot [setups] fresh servers one after another, each warmed by the
    client; run the measured phase against the last.  Returns the phase
    and the set-up times."""
    wrong = "1" if args.wrong_reference else "0"
    client_trace = os.path.join(WORK, "client.trace.json") if telemetry else ""
    server_trace = os.path.join(WORK, "server.trace.json") if telemetry else ""
    client = Proc("client", "--ops", ops_path, "--seconds", seconds, "--trace-out", client_trace,
                  "--wrong-reference", wrong)
    server = None
    try:
        refs = client.result()
        setup = []
        for k in range(setups):
            t0 = time.monotonic()
            server = Proc("server", "--telemetry", int(telemetry),
                          "--trace-out", server_trace if k == setups - 1 else "")
            port = int(server.line().split()[1])
            warm = client.ask(f"warm {port}")
            setup.append(time.monotonic() - t0)
            r.check(warm["failed"] == 0, f"{warm['failed']} warm-up answers were wrong")
            if k < setups - 1:
                server.stop(15)
                server = None
        extra = {}
        if telemetry:
            before = prom(client.ask("stats")["text"])
        phase = client.ask("run")
        if telemetry:
            # the server's counters over the measured phase alone
            after = prom(client.ask("stats")["text"])
            extra["stats"] = {k: v - before.get(k, 0.0) for k, v in after.items()}
            # interning happens in set-up: these two are whole-life totals
            extra["interned"] = {k: after.get(k, 0.0) for k in
                                 ("cert_store_distinct", "memo_cert_store_hits",
                                  "memo_cert_store_misses")}
            extra["ping"] = client.ask("ping 200")["rtt_us"]
        client.stop()
        extra["server"] = server.stop(15)
        server = None
        extra["refs"] = refs
        return phase, setup, extra
    finally:
        for p in (client, server):
            if p is not None and p.p.poll() is None:
                p.p.kill()
                p.p.wait()


def run_serve(args, r):
    n = SMOKE["serve_n"] if args.smoke else SERVE_N
    # a traced run measures twice, untraced then traced, each half as long
    seconds = args.seconds / 2 if args.trace else args.seconds
    (ops_path,) = inputs("serve-hot", args.seed, args.smoke)
    if args.trace:
        # each on a fresh server: the difference of their medians is
        # the tracing overhead
        plain, _, _ = serve_phase(args, r, ops_path, seconds, False, 1)
        phase, setup, extra = serve_phase(args, r, ops_path, seconds, True, 1)
    else:
        phase, setup, extra = serve_phase(args, r, ops_path, seconds, False, SERVE_SETUPS)
    status, lat = phase["status"], [x / 1e3 for x in phase["rtt_us"]]
    r.attempted = len(status)
    r.failed = sum(s != "ok" for s in status)
    slo = SLO_MS["serve-hot"]
    win = windows(phase["sent_ms"], list(zip(lat, status)), seconds)
    req_per_s = median([len(w) / (sum(l for l, _ in w) / 1e3) for w in win])
    r.e2e = {
        "setup_s": median(setup),
        "op_p50_ms": median([median([l for l, _ in w]) for w in win]),
        "op_p90_ms": median([p90([l for l, _ in w]) for w in win]),
        "verts_per_s": n * req_per_s,
        "req_per_s": req_per_s,
        "rounds_per_s": req_per_s,
        "slo_frac": sum(s == "ok" and l <= slo for l, s in zip(lat, status)) / len(status),
        "quiesced_round": 1,
        # answers equal the references, so this is the largest
        # certificate any answer reported
        "cert_bits": extra["refs"]["cert_bits"],
        "peak_rss_mb": extra["server"]["peak_rss_mb"],
    }
    r.notes["requests"] = len(status)
    if args.trace:
        st, cl = extra["stats"], extra["refs"]["layers"]
        def ratio(a, b):
            return st.get(a, 0.0) / max(1.0, st.get(b, 0.0))

        verifies = max(1.0, st.get("serve_requests_verify", 0.0))
        compile_ms = sum(v for k, v in st.items()
                         if "vcompile" in k and k.endswith("_ms_sum"))
        sweep_ms = st.get("serve_handle_run_par_ms_sum", 0.0)
        hits = st.get("memo_serve_prepared_hits", 0.0)
        misses = st.get("memo_serve_prepared_misses", 0.0)
        it = extra["interned"]
        lookups = it["memo_cert_store_hits"] + it["memo_cert_store_misses"]
        r.layers.update({
            "graph.ingest_ms": cl.get("graph.ingest", 0.0),
            "core.instance_ms": cl.get("core.instance", 0.0),
            "core.prove_ms": cl.get("core.prove", 0.0),
            "util.intern_ms": cl.get("util.intern", 0.0),
            "util.intern_hit_ratio": it["memo_cert_store_hits"] / max(1.0, lookups),
            "util.distinct_certs": it["cert_store_distinct"],
            "engine.compile_ms": compile_ms / verifies,
            "engine.check_ms": (sweep_ms - compile_ms) / verifies,
            "engine.kernel_reuse_frac": st.get("vcompile_kernel_reuse", 0.0) / verifies,
            "serve.ping_rtt_us": median(extra["ping"]),
            "serve.handle_ms": st.get("serve_handle_ms_sum", 0.0) / verifies,
            "serve.queue_wait_us": ratio("serve_queue_wait_us_sum", "serve_queue_wait_us_count"),
            "serve.batch_size_mean": ratio("serve_batch_size_sum", "serve_batch_size_count"),
            "serve.coalesced_frac": st.get("serve_coalesced", 0.0) / verifies,
            "serve.retry_later": st.get("serve_retry_later", 0.0),
            "serve.prepared_hit_frac": hits / max(1.0, hits + misses),
            # mean latency outside the handler and the queue: wire, IO,
            # decode and the client
            "unattributed_ms": statistics.fmean(lat) - (
                st.get("serve_handle_ms_sum", 0.0)
                + st.get("serve_queue_wait_us_sum", 0.0) / 1e3) / verifies,
            "gc.minor_words": extra["server"]["minor_words"] / max(1, len(status)),
            "gc.major_collections": extra["server"]["major_collections"] / max(1, len(status)),
            "trace.overhead_frac": median(lat) / median(plain["rtt_us"]) * 1e3 - 1,
        })


def run_simulate(args, r):
    n = SMOKE["sim_n"] if args.smoke else SIM_N
    (path,) = inputs("simulate-churn", args.seed, args.smoke)
    trace_out = os.path.join(WORK, "simulate.trace.json") if args.trace else ""
    o = probe("simulate", "--file", path, "--scheme", SIM_SCHEME, "--plan", SIM_PLAN,
              "--rounds", SIM_ROUNDS, "--seed", args.seed, "--setups", SIM_SETUPS,
              "--min-ops", SIM_MIN_OPS, "--seconds", args.seconds,
              "--trace-out", trace_out,
              "--wrong-reference", int(args.wrong_reference))
    ops = o["ops"]
    r.attempted = len(ops)
    r.failed = sum(not op["ok"] for op in ops)
    r.check(o["n"] == n, "instance size")
    quiesced = {op["quiesced_round"] for op in ops}
    r.check(len(quiesced) == 1, f"ops quiesced at different rounds: {sorted(quiesced)}")
    timed = [op for op in ops if not op["traced"]]
    lat = [op["op_ms"] for op in timed]
    r.e2e = {
        "setup_s": median(o["setup_s"]),
        "op_p50_ms": median(lat),
        "op_p90_ms": p90(lat),
        "verts_per_s": n * SIM_ROUNDS * len(lat) / (sum(lat) / 1e3),
        "req_per_s": len(lat) / (sum(lat) / 1e3),
        "rounds_per_s": SIM_ROUNDS * len(lat) / (sum(lat) / 1e3),
        "slo_frac": sum(op["ok"] and op["op_ms"] <= SLO_MS["simulate-churn"]
                        for op in timed) / len(timed),
        "quiesced_round": median([op["quiesced_round"] for op in ops]),
        "cert_bits": max(op["cert_bits"] for op in ops),
        "peak_rss_mb": o["peak_rss_mb"],
    }
    r.notes["ops"] = len(ops)
    if args.trace:
        sl = o["setup_layers"]
        traced = [op for op in ops if op["traced"]]
        checked = median([op["checked"] for op in ops])
        r.layers.update({
            "graph.ingest_ms": sl.get("graph.ingest", 0.0),
            "core.instance_ms": sl.get("core.instance", 0.0),
            "core.prove_ms": sl.get("core.prove", 0.0),
            "util.intern_ms": sl.get("util.intern", 0.0),
            "util.intern_hit_ratio": o["intern_hit_ratio"],
            "util.distinct_certs": o["distinct_certs"],
            "runtime.round_floor_ms": o["round_floor_ms"],
            "runtime.checked": checked,
            "runtime.reverified_frac": median([op["reverified"] for op in ops]) / checked,
            "runtime.adopted": median([op["adopted"] for op in ops]),
            "gc.minor_words": median([op["minor_words"] for op in ops]),
            "gc.major_collections": median([op["major_collections"] for op in ops]),
            "trace.overhead_frac": median([op["op_ms"] for op in traced]) / median(lat) - 1,
        })


# ---------------------------------------------------------------- main

def spec():
    with open(SPEC) as f:
        return json.load(f)


def measure(args):
    os.makedirs(WORK, exist_ok=True)
    build()
    host = probe("ready")
    total0, steal0 = proc_stat()
    calib0 = calibration_ms()
    r = Run()
    try:
        if args.workload == "certify-cold":
            run_certify(args, r)
        elif args.workload == "serve-hot":
            run_serve(args, r)
        else:
            run_simulate(args, r)
    except ProgramFault as e:
        r.attempted = max(r.attempted, 1)
        r.failed = max(r.failed, 1)
        r.check(False, str(e))
    finally:
        clean_inputs()
    total1, steal1 = proc_stat()
    calib1 = calibration_ms()
    r.e2e["ok_frac"] = (r.attempted - r.failed) / max(1, r.attempted)
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                                text=True).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    print("host " + json.dumps({
        "nproc": len(os.sched_getaffinity(0)),
        "recommended_domain_count": host["recommended_domain_count"],
        "ocaml_version": host["ocaml_version"],
        "commit": commit,
        "steal_frac": (steal1 - steal0) / max(1, total1 - total0),
        "calibration_ms": [calib0, calib1],
    }))
    print("notes " + json.dumps(r.notes))
    for p in r.problems:
        print("check failed: " + p)
    s = spec()
    wanted = s["per_layer"] if args.trace else s["end_to_end"]
    values = r.layers if args.trace else r.e2e
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}
    correct = (not r.problems and r.failed == 0 and r.attempted > 0
               and set(values) >= {m["name"] for m in wanted if not args.trace})
    print(json.dumps({"correct": correct, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}))


def self_run(*extra):
    """This script on the given arguments, in a fresh process: its last
    line, parsed, and its wall time."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, os.path.abspath(__file__), *map(str, extra)],
                         stdout=subprocess.PIPE, text=True, timeout=900).stdout
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]), time.monotonic() - t0
    except (IndexError, ValueError):
        return None, time.monotonic() - t0


def worse_by(m, old, new):
    """How much worse [new] is than [old], as a share of [old]."""
    if old == 0:
        return 0.0
    return (new - old) / old if m["better"] == "lower" else (old - new) / old


def steady(args):
    """Run the workload K times on successive seeds and report each
    metric's median, quartiles and spread against its bound."""
    s = spec()
    wanted = s["per_layer"] if args.trace else s["end_to_end"]
    runs, bad = [], 0
    for k in range(args.steady):
        seed = args.seed + k
        last, wall = self_run("--workload", args.workload, "--seed", seed,
                              "--seconds", args.seconds, "--trace", args.trace)
        if last is None or not last["correct"]:
            bad += 1
        print(f"seed {seed}: correct={last and last['correct']} wall={wall:.1f}s", flush=True)
        if last is not None:
            runs.append(last)
    if not runs:
        return 1
    against = {}
    if args.against:
        with open(args.against) as f:
            against = json.load(f)["medians"]
    medians, flagged = {}, []
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in wanted:
        vals = [r["metrics"][m["name"]]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else 0.0
        medians[m["name"]] = med
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            if spread > bound and m["name"] != "setup_s":
                flag = "SPREAD>BOUND"
                flagged.append(m["name"])
            elif spread > bound / 3:
                flag = "spread>bound/3"
            if m["name"] in against and worse_by(m, against[m["name"]], med) > bound:
                flag += " WORSE-THAN-SAVED"
                flagged.append(m["name"])
        print(f"{m['name']:28} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{bound if bound is not None else '':>6} {flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace, "medians": medians,
                       "runs": runs}, f, indent=1)
    print(f"{len(runs)} runs, {bad} not correct, {len(flagged)} metrics flagged")
    return 1 if bad or flagged else 0


def selfcheck():
    """The benchmark's own checks, on smoke-sized inputs."""
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    s = spec()
    os.makedirs(WORK, exist_ok=True)
    build()
    for w in WORKLOADS:
        a = digest(inputs(w, 1, smoke=True))
        b = digest(inputs(w, 1, smoke=True))
        c = digest(inputs(w, 2, smoke=True))
        expect(a == b, f"{w}: the op list is byte-identical for one seed")
        expect(a != c, f"{w}: the op list differs for another seed")
    clean_inputs()
    for w in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            last, _ = self_run("--workload", w, "--seed", 1, "--seconds", 2,
                               "--trace", trace, "--smoke")
            expect(last is not None and last["correct"], f"{w} --trace {trace}: correct")
            if last is None:
                continue
            want = {m["name"]: m["unit"] for m in s[kind]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            expect(got == want, f"{w} --trace {trace}: every {kind} metric, with its unit")
            if trace == 0:
                expect(all(v["value"] > 0 for v in last["metrics"].values()),
                       f"{w}: every end-to-end metric is above 0")
        last, _ = self_run("--workload", w, "--seed", 1, "--seconds", 2, "--smoke",
                           "--wrong-reference")
        expect(last is not None and not last["correct"]
               and last["metrics"]["ok_frac"]["value"] < 1,
               f"{w}: a wrong reference drives ok_frac below 1")
    print(f"{len(failures)} self-checks failed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="K")
    ap.add_argument("--save", metavar="FILE")
    ap.add_argument("--against", metavar="FILE")
    ap.add_argument("--selfcheck", action="store_true")
    ap.add_argument("--smoke", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--wrong-reference", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not os.path.exists(SPEC):
        sys.exit("e2ebench: BENCHMARK.json not found at the checkout root")
    if args.selfcheck:
        sys.exit(selfcheck())
    if args.workload is None:
        ap.error("--workload is required")
    if args.steady:
        sys.exit(steady(args))
    measure(args)


if __name__ == "__main__":
    main()
