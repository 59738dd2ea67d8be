#!/usr/bin/env python3
"""Daemon-level load benchmark for `infoflow serve --socket`.

    python3 perfbench/run.py --workload bank-replay --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Builds the library, the CLI and the
benchmark tools into .bench_build/, generates the workload's inputs from
--seed, starts the real daemon with default flags plus the workload's own,
and drives it from one load-generator process: a closed-loop phase for the
first half of --seconds, then an open-loop phase at the workload's fixed
offered rate. Every response is checked against an in-process reference.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics (daemon counters scraped over the socket and /proc, plus a traced
in-process replay of the workload's request stream). The last stdout line
is the JSON result; earlier lines carry the machine/build stamp and a
human-readable summary. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BUILD = Path(".bench_build")
CMAKE_DIR = BUILD / "cmake"
SETUP_LAUNCHES = 5
# A run whose open-loop generator sent its median request later than this
# share of the open-loop p50 is rejected: the bound BENCHMARK.json sets on
# every timed metric.
LATENESS_SHARE = 0.25
DAEMON_STOP_S = 60.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    CMAKE_DIR.mkdir(parents=True, exist_ok=True)
    out = open(BUILD / "build.log", "ab")
    if not (CMAKE_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(CMAKE_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=out, stderr=subprocess.STDOUT, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(CMAKE_DIR), "-j", jobs],
                   stdout=out, stderr=subprocess.STDOUT, check=True)
    tools = {
        "cli": CMAKE_DIR / "infoflow" / "tools" / "infoflow",
        "load": CMAKE_DIR / "perfbench_load",
        "replay": CMAKE_DIR / "perfbench_replay",
    }
    for path in tools.values():
        if not path.exists():
            raise BenchError(f"build produced no {path}")
    return tools


def stamp(seed, workload):
    """Machine and build facts that make a mismatched comparison visible."""
    cache = {}
    for line in (CMAKE_DIR / "CMakeCache.txt").read_text().splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, _, value = line.partition("=")
            cache[key.split(":")[0]] = value
    cpu, l2 = platform.processor(), ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        l2 = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    flags = (cache.get("CMAKE_CXX_FLAGS", "") + " " +
             cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", "")).strip()
    sha = ""
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        pass
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "l2": l2, "compiler": version,
        "flags": flags, "build_type": build_type,
        "metrics_enabled": cache.get("INFOFLOW_NO_METRICS", "OFF") in ("OFF", "0", "FALSE", ""),
        "git_sha": sha or "unknown (not a git checkout)",
        "workload": workload, "seed": seed,
    }


# ----------------------------------------------------------------- inputs

def make_inputs(tools, name, seed, work):
    spec = workloads.WORKLOADS[name]
    subprocess.run([str(tools["cli"]), "simulate", "--out-dir", str(work),
                    "--users", str(spec["users"]), "--topology", spec["topology"],
                    "--seed", str(workloads.GRAPH_SEED)],
                   check=True, stdout=subprocess.DEVNULL)
    model = work / "truth.picm"
    pool = workloads.make_pool(name, seed, model)
    (work / "pool.ndjson").write_text("".join(line + "\n" for _, line in pool))
    ingest = None
    if spec.get("epoch_every"):
        ingest = workloads.make_ingest_pool(work / "evidence.att")
        (work / "ingest.ndjson").write_text("".join(line + "\n" for line in ingest))
    return model, pool, ingest


def corrupt_reference(path):
    """Self-check hook (perfbench/selfcheck.py): perturbs the first number
    after "value" (or "spread") in the first reference answer, which the
    warm-up sends, so the run must report correct: false."""
    lines = path.read_text().splitlines()
    for key in ('"value":', '"spread":'):
        at = lines[0].find(key)
        if at >= 0:
            at += len(key)
            end = at
            while end < len(lines[0]) and lines[0][end] in "0123456789.e-+":
                end += 1
            number = float(lines[0][at:end]) + 0.125
            lines[0] = lines[0][:at] + repr(number) + lines[0][end:]
            path.write_text("\n".join(lines) + "\n")
            return
    raise BenchError("reference answer has no value to corrupt")


# ----------------------------------------------------------------- daemon

class Daemon:
    """One `infoflow serve --socket` process; stdin EOF stops it."""

    def __init__(self, tools, name, model, work):
        spec = workloads.WORKLOADS[name]
        self.sock_path = str(work / "d.sock")
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)
        self.proc = subprocess.Popen(
            [str(tools["cli"]), "serve", "--model", str(model),
             "--socket", self.sock_path] + spec["flags"],
            stdin=subprocess.PIPE, stdout=subprocess.DEVNULL,
            stderr=open(work / "daemon.log", "ab"))

    def connect(self, timeout=120.0):
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise BenchError(f"daemon exited with {self.proc.returncode} during set-up")
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock_path)
                return Client(s)
            except OSError:
                s.close()
                if time.monotonic() > deadline:
                    raise BenchError("daemon socket never came up")
                time.sleep(0.002)

    def status(self, field):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith(field + ":"):
                return line.split()[1]
        raise BenchError(f"no {field} in /proc status")

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=DAEMON_STOP_S)
            except subprocess.TimeoutExpired:
                self.proc.send_signal(signal.SIGTERM)
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)


class Client:
    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def ask(self, line):
        self.sock.sendall(line.encode() + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise BenchError("daemon closed the connection")
            self.buf += chunk
        reply, _, self.buf = self.buf.partition(b"\n")
        return reply.decode()

    def close(self):
        self.sock.close()


def with_id(line, ident):
    return '{"id":"%s",%s' % (ident, line[1:])


def warmup_lines(pool, ingest):
    """One line of each kind in the mix: (pool tag, line)."""
    seen, lines = set(), []
    for k, (kind, line) in enumerate(pool):
        if kind not in seen:
            seen.add(kind)
            lines.append((f"r{k}", line))
    if ingest:
        lines.append(("i0", ingest[0]))
    return lines


def launch(tools, name, model, work, warm):
    """Starts a daemon and answers one warm-up line of each kind; returns
    (daemon, set-up seconds, warm-up records)."""
    t0 = time.perf_counter()
    daemon = Daemon(tools, name, model, work)
    client = daemon.connect()
    records = []
    for n, (tag, line) in enumerate(warm):
        ident = f"{tag[1:]}.w.{n}"
        records.append({"conn": "w", "pool": tag, "id": ident,
                        "response": client.ask(with_id(line, ident))})
    setup = time.perf_counter() - t0
    client.close()
    return daemon, setup, records


def scrape(daemon):
    client = daemon.connect()
    try:
        stats = json.loads(client.ask('{"id":"stats","stats":true}'))["stats"]
        health = json.loads(client.ask('{"id":"health","health":true}'))["health"]
    finally:
        client.close()
    return stats, health


# --------------------------------------------------------------- load phase

def run_load(tools, daemon, work, mode, seconds, seed, spec, has_ingest):
    out = work / f"load-{mode}.tsv"
    cmd = [str(tools["load"]), "--socket", daemon.sock_path,
           "--pool", str(work / "pool.ndjson"),
           "--mode", mode,
           "--seconds", repr(seconds), "--seed", str(seed),
           "--out", str(out), "--daemon-pid", str(daemon.proc.pid),
           "--reference", str(work / "reference.ndjson")]
    if mode == "open":
        cmd += ["--rate", repr(spec["open_rate"])]
    if has_ingest:
        cmd += ["--ingest-pool", str(work / "ingest.ndjson"),
                "--ingest-rate", repr(spec["ingest_rate"])]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 150)
    if proc.returncode != 0:
        raise BenchError(f"load generator failed: {proc.stderr.strip()}")
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    records = []
    with open(out) as f:
        for raw in f:
            conn, seq, pool, due, send, recv, response = raw.rstrip("\n").split("\t", 6)
            records.append({"conn": int(conn), "seq": int(seq), "pool": pool,
                            "due": int(due), "send": int(send), "recv": int(recv),
                            "response": response})
    return summary, records


def quantile(values, q):
    """Linear-interpolated q-quantile of a non-empty list."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# --------------------------------------------------------------- checking

def normalized(obj):
    # `frontier_shared` says whether the daemon merged this query's scan
    # with another line of the same batch: a property of the batch, not of
    # the answer, so it is left out of the comparison with the echoed id.
    return {k: v for k, v in obj.items() if k not in ("id", "frontier_shared")}


class Checker:
    """Checks every daemon response against the in-process reference
    (exactly) or, for rows drawn from a later streamed model epoch, for
    structure."""

    def __init__(self, reference, pool_size):
        self.reference = [normalized(json.loads(line)) for line in reference]
        if len(self.reference) != pool_size:
            raise BenchError("reference does not cover the pool")
        self.attempted = self.failed = self.mismatched = self.missing = 0
        self.exact = self.structural = self.ingested = 0
        self.last_epoch = {}
        self.first_problem = None

    def problem(self, message):
        if self.first_problem is None:
            self.first_problem = message

    def check(self, rec, expected_id):
        self.attempted += 1
        if rec.get("recv", 0) < 0 or not rec["response"]:
            self.missing += 1
            self.problem(f"no response to {expected_id}")
            return
        tag = rec["pool"]
        if rec["response"] in ("=", "=s"):
            # The load generator matched it to the reference byte for byte.
            self.epoch_seen(rec["conn"], 1)
            self.exact += 1
            return
        try:
            obj = json.loads(rec["response"])
        except ValueError:
            self.mismatched += 1
            self.problem(f"unparseable response to {expected_id}")
            return
        if obj.get("id") != expected_id:
            self.mismatched += 1
            self.problem(f"response id {obj.get('id')!r}, expected {expected_id!r}")
            return
        if obj.get("ok") is not True:
            self.failed += 1
            self.problem(f"{expected_id} failed: {obj.get('error')}")
            return
        if tag.startswith("i"):
            ok = obj.get("ingested") is True
            self.ingested += 1
        else:
            k = int(tag[1:])
            epoch = obj.get("model_epoch", 1)
            if not self.epoch_seen(rec["conn"], epoch):
                return
            if epoch == 1:
                ok = normalized(obj) == self.reference[k]
                self.exact += 1
            else:
                ok = all(0.0 <= e.get("value", -1) <= 1.0
                         for e in obj.get("estimates", [])) and bool(obj.get("estimates"))
                self.structural += 1
        if not ok:
            self.mismatched += 1
            self.problem(f"{expected_id} differs from the reference: {rec['response'][:300]}")

    def epoch_seen(self, conn, epoch):
        """Model epochs must not go back on one connection."""
        if epoch < self.last_epoch.get(conn, 0):
            self.mismatched += 1
            self.problem(f"model_epoch went back on connection {conn}")
            return False
        self.last_epoch[conn] = epoch
        return True

    def errors(self):
        return self.failed + self.mismatched + self.missing


def record_id(rec):
    return "%s.%d.%d" % (rec["pool"][1:], rec["conn"], rec["seq"])


# ------------------------------------------------------------------- main

def histogram_mean_delta(before, after, name):
    a = after.get("histograms", {}).get(name, {})
    b = before.get("histograms", {}).get(name, {}) if before else {}
    total = a.get("total", 0) - b.get("total", 0)
    return (a.get("sum", 0.0) - b.get("sum", 0.0)) / total if total > 0 else 0.0


def counter(stats, name):
    return stats.get("counters", {}).get(name, 0)


def run(args):
    name, seed = args.workload, args.seed
    spec = workloads.WORKLOADS[name]
    tools = build()
    work = BUILD / "w" / f"{name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        return measure(args, tools, spec, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, tools, spec, work):
    name, seed = args.workload, args.seed
    info = stamp(seed, name)
    print(json.dumps({"stamp": info}, sort_keys=True))
    model, pool, ingest = make_inputs(tools, name, seed, work)
    warm = warmup_lines(pool, ingest)

    # The reference answers every pool line in-process before the daemon
    # starts, so it takes no CPU from the timed phases.
    ref_path = work / "reference.ndjson"
    ref = subprocess.run([str(tools["replay"]), "reference", "--model", str(model),
                          "--pool", str(work / "pool.ndjson"), "--out", str(ref_path),
                          "--backend", spec["backend"]],
                         capture_output=True, text=True)
    if ref.returncode != 0:
        raise BenchError(f"reference failed: {ref.stderr.strip()}")
    # A daemon answer is checked by equality with the reference, so every
    # reference answer must be a success: an error the daemon reproduces
    # would otherwise pass as correct.
    for k, line in enumerate(ref_path.read_text().splitlines()):
        if json.loads(line).get("ok") is not True:
            raise BenchError(f"pool line {k} fails in the reference: {line[:300]}")
    if os.environ.get("PERFBENCH_CORRUPT_REFERENCE"):
        corrupt_reference(ref_path)

    # Set-up: exec until one line of each kind has been answered. Repeated
    # on fresh daemons; the last one stays up for the load phases.
    setups, warm_records, daemon = [], [], None
    launches = SETUP_LAUNCHES if args.trace == 0 else 1
    try:
        for n in range(launches):
            daemon, setup, records = launch(tools, name, model, work, warm)
            setups.append(setup)
            warm_records += records
            if n + 1 < launches:
                daemon.stop()
                daemon = None
        half = args.seconds / 2.0
        closed, closed_recs = run_load(tools, daemon, work, "closed", half, seed,
                                       spec, ingest is not None)
        stats_closed, _ = scrape(daemon)
        opened, open_recs = run_load(tools, daemon, work, "open", half, seed + 1,
                                     spec, ingest is not None)
        stats_open, health = scrape(daemon)
        vm_hwm_kb = int(daemon.status("VmHWM"))
    finally:
        if daemon is not None:
            daemon.stop()

    checker = Checker(ref_path.read_text().splitlines(), len(pool))
    for rec in warm_records:
        checker.check(dict(rec, recv=0), rec["id"])
    for rec in closed_recs + open_recs:
        checker.check(rec, record_id(rec))
    ingest_sent = sum(1 for r in warm_records + closed_recs + open_recs
                      if r["pool"].startswith("i"))
    # Warm-up ingest lines of the stopped set-up daemons were absorbed there.
    ingest_sent -= (launches - 1) * sum(1 for tag, _ in warm if tag.startswith("i"))
    if ingest is not None:
        absorbed = health.get("ingest", {}).get("absorbed_total")
        if absorbed != ingest_sent:
            checker.mismatched += 1
            checker.problem(f"health absorbed_total {absorbed} != {ingest_sent} ingest lines sent")

    # Latency and throughput are those of reads (queries and top-k); the
    # ingest acknowledgements are checked and counted but not timed.
    closed_ms = [(r["recv"] - r["send"]) / 1e6 for r in closed_recs
                 if r["recv"] >= 0 and r["pool"].startswith("r")]
    open_ms = [(r["recv"] - r["due"]) / 1e6 for r in open_recs
               if r["recv"] >= 0 and r["pool"].startswith("r")]
    late_ms = [(r["send"] - r["due"]) / 1e6 for r in open_recs]
    if len(closed_ms) < 2 or len(open_ms) < 2:
        raise BenchError("a load phase completed fewer than two requests")
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (len(closed_ms) / closed["wall_s"], "1/s"),
        "latency_p50_ms": (quantile(closed_ms, 0.50), "ms"),
        "latency_p99_ms": (quantile(closed_ms, 0.99), "ms"),
        "ok_rate": (1.0 - checker.errors() / checker.attempted, "ratio"),
        "peak_rss_mb": (vm_hwm_kb / 1024.0, "MB"),
    }
    # The open-loop percentiles are reported with the per-layer figures, not
    # gated: a read alone on an idle daemon follows the slowest core of a
    # shared machine: over ten seeds their spread reached 0.36 (p50) and 0.8
    # (p99) of the median, and the p50 median moved by 39% between two sets
    # of ten, beyond any bound the benchmark may set.
    open_p50 = quantile(open_ms, 0.50)
    open_p99 = quantile(open_ms, 0.99)
    lateness_p50 = quantile(late_ms, 0.50)
    summary = (f"{name} seed {seed}: closed {len(closed_ms)} req in {closed['wall_s']:.2f} s, "
               f"open {len(open_ms)} req at {spec['open_rate']}/s "
               f"(p50 {open_p50:.4f} ms, p99 {open_p99:.4f} ms); "
               f"generator lateness "
               f"p50 {lateness_p50:.4f} ms p99 {quantile(late_ms, 0.99):.4f} ms, "
               f"cpu {closed['cpu_s'] + opened['cpu_s']:.2f} s; checked {checker.exact} exact, "
               f"{checker.structural} structural, {checker.ingested} ingest acks")
    print(summary)
    log(summary)
    if lateness_p50 > LATENESS_SHARE * open_p50:
        raise BenchError(
            f"generator fell behind its schedule: median lateness {lateness_p50:.4f} ms "
            f"exceeds {LATENESS_SHARE} x open-loop p50 {open_p50:.4f} ms")
    correct = checker.mismatched == 0 and checker.missing == 0 and checker.failed == 0
    if not correct:
        log(f"check failed: {checker.first_problem}")

    if args.trace == 0:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    else:
        metrics = per_layer(tools, spec, seed, work, model, ingest, stats_closed,
                            stats_open, opened, closed, open_recs + closed_recs,
                            late_ms, open_p50, open_p99, checker.reference,
                            BUILD / "spans" / f"{name}-{seed}.json")
    return {"correct": correct, "attempted": checker.attempted,
            "failed": checker.errors(), "metrics": metrics}


def per_layer(tools, spec, seed, work, model, ingest, stats_closed, stats_open,
              opened, closed, records, late_ms, open_p50, open_p99, reference, spans):
    spans.parent.mkdir(exist_ok=True)
    pool = work / "pool.ndjson"
    if spec.get("trace_topk"):
        # No workload sends top-k over the socket (see README.md); the
        # seedmax layer is measured in this replay, on this graph.
        lines = workloads.topk_lines(seed, model, spec["trace_topk"])
        pool = work / "trace-pool.ndjson"
        pool.write_text("".join(line + "\n" for line in lines) +
                        (work / "pool.ndjson").read_text())
    cmd = [str(tools["replay"]), "trace", "--model", str(model),
           "--pool", str(pool), "--backend", spec["backend"],
           "--limit", str(spec["trace_limit"]), "--spans", str(spans)]
    if ingest is not None:
        cmd += ["--ingest-pool", str(work / "ingest.ndjson"),
                "--epoch-every", str(spec["epoch_every"])]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"traced replay failed: {proc.stderr.strip()}")
    traced = json.loads(proc.stdout.strip().splitlines()[-1])

    reads = []
    for r in records:
        if r["recv"] < 0 or not r["pool"].startswith("r") or not r["response"]:
            continue
        if r["response"] in ("=", "=s"):
            # Settled by the load generator: the reference answer, plus the
            # batch flag it reported.
            reads.append(dict(reference[int(r["pool"][1:])],
                              frontier_shared=r["response"] == "=s"))
        else:
            reads.append(json.loads(r["response"]))
    queries = [o for o in reads if o.get("ok") and "estimates" in o]
    bank = [o for o in queries if o.get("backend") == "bank"]
    share = lambda part, whole: part / whole if whole else 0.0  # noqa: E731
    s = stats_open
    triggered = counter(s, "serve.server.rebuilds_triggered_total")
    requests = counter(s, "serve.query.requests_total")
    m = {
        "protocol.parse_us": (traced["protocol.parse_us"], "us"),
        "protocol.serialize_us": (traced["protocol.serialize_us"], "us"),
        "protocol.response_bytes": (traced["protocol.response_bytes"], "bytes"),
        "server.threads": (opened["daemon_threads"], "count"),
        "server.batch_lines_mean": (
            histogram_mean_delta(stats_closed, stats_open, "serve.server.batch_lines"), "lines"),
        "server.open_p50_ms": (open_p50, "ms"),
        "server.open_p99_ms": (open_p99, "ms"),
        "query_plan.answer_batch_self_us": (traced["query_plan.answer_batch_self_us"], "us"),
        "query_plan.frontier_shared_ratio": (
            share(sum(1 for o in bank if o.get("frontier_shared")), len(bank)), "ratio"),
        "query_plan.effective_rows_ratio": (
            share(sum(o["effective_rows"] / o["total_rows"] for o in bank), len(bank)), "ratio"),
        "query_plan.analytic_ratio": (
            share(sum(1 for o in queries if o.get("backend") == "analytic"), len(queries)),
            "ratio"),
        "graph.kernel_us": (traced["graph.kernel_us"], "us"),
        "graph.replay_ns_per_row": (traced["graph.replay_ns_per_row"], "ns"),
        "graph.strip_width": (s.get("gauges", {}).get("reach.strip_width", 0.0), "lanes"),
        "graph.rows_replayed": (share(counter(s, "serve.query.rows_scanned_total"), requests),
                                "rows"),
        "sample_bank.fill_s": (traced["sample_bank.fill_s"], "s"),
        "sample_bank.strip_plane_ms": (traced["sample_bank.strip_plane_ms"], "ms"),
        "sample_bank.bytes": (traced["sample_bank.bytes"], "bytes"),
        "sample_bank.rebuild_s": (traced["sample_bank.rebuild_s"], "s"),
        "sample_bank.rebuilds_applied_ratio": (
            share(counter(s, "serve.bank.rebuilds_total"), triggered), "ratio"),
        "multi_chain.transitions_per_s": (traced["multi_chain.transitions_per_s"], "1/s"),
        "analytic.answer_us": (traced["analytic.answer_us"], "us"),
        "analytic.refused": (traced["analytic.refused"], "count"),
        "seedmax.build_ms": (traced["seedmax.build_ms"], "ms"),
        "seedmax.select_ms": (traced["seedmax.select_ms"], "ms"),
        "seedmax.celf_evaluations": (traced["seedmax.celf_evaluations"], "count"),
        "seedmax.prune_ratio": (traced["seedmax.prune_ratio"], "ratio"),
        "stream.ingest_us": (traced["stream.ingest_us"], "us"),
        "stream.epochs": (counter(s, "stream.epoch.publishes_total"), "count"),
        "obs.trace_overhead": (traced["obs.trace_overhead"], "ratio"),
        "obs.accounted_ratio": (share(traced["replay.accounted_s"], traced["replay.untraced_s"]),
                                "ratio"),
        "loadgen.lateness_p50_ms": (quantile(late_ms, 0.50), "ms"),
        "loadgen.lateness_p99_ms": (quantile(late_ms, 0.99), "ms"),
        "loadgen.cpu_s": (closed["cpu_s"] + opened["cpu_s"], "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.chdir(ROOT)
    try:
        result = run(args)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError) as err:
        log(f"perfbench: {err}")
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
