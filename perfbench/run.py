#!/usr/bin/env python3
"""spindle's benchmark: three workloads driven from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the repository root. The script builds the release binaries
(`spindle`, `experiments`) and the in-process helper
(`perfbench/layers`), generates the workload's inputs from the seed,
times the workload for about `--seconds` seconds and checks every
output. Human-readable lines go to stderr; the last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

`--trace 0` reports the end-to-end metrics of the workload. `--trace 1`
reports the per-layer metrics: it reruns the workload's timed phase
with spans around every call the harness makes into a layer, runs the
other workloads' phases and the layer kernels once, writes the spans
as a Chrome trace-event file and validates it with `spindle trace
check`. `--all` runs every workload (end-to-end and traced) and writes
the collected figures to `$CARGO_TARGET_DIR/perfbench/results.json`.

See perfbench/README.md for why each workload and metric exists.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

WORKLOADS = ("paper_matrix", "saturated_replay", "served_jobs")
LAYERS = ("harness", "engine", "disk", "trace", "serve", "synth", "obs", "stats", "core")

# Requests replayed per scheduler on the saturated trace. The
# schedulers' costs grow differently with backlog (SPTF fastest), so
# each gets the prefix that takes roughly the same host time and no
# single scheduler hides the others in `wall_s`.
SATURATED_SIZES = {"fcfs": 20000, "sstf": 20000, "look": 10000, "sptf": 3200}
# Requests in the served jobs' mail trace: a light load (a few percent
# utilization) whose simulation takes tens of ms.
MAIL_REQUESTS = 20000
# Jobs each served client runs per round.
JOBS_PER_CLIENT = 4
CLIENTS = 2
SERVE_PARALLEL = 2
# Repetitions of each set-up measurement; set-up reports the median.
SETUP_REPS = {"paper_matrix": 51, "saturated_replay": 31, "served_jobs": 21}
# The daemon keeps every finished job's record and spans, so its peak
# RSS grows with the jobs it has run; it is read after this many jobs
# (or at the end of a shorter run), which makes it independent of speed.
RSS_AFTER_JOBS = 32
# Percentiles tried for the latency tail, highest first; the tail is
# the highest one with at least TAIL_BEYOND samples above it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
HTTP_TIMEOUT_S = 60
# The daemon's SSE handler polls a job's event ring every 100 ms, from
# the moment the stream opens. Opened right after the submit, every
# stream polls in step with its job, and latencies fall into 100 ms
# steps whose median flips with tiny changes in job time. A seeded
# uniform delay before opening the stream spreads the poll phase, so
# the latency distribution is continuous. The delay adds nothing
# while jobs take longer than it (today, about 400 ms).
SSE_DITHER_S = 0.1
# One period of the daemon's 10 ms accept poll; see served_setup().
ACCEPT_DITHER_S = 0.01


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A failed operation or output check; counted, never fatal."""


# ---------------------------------------------------------------- tracing


class Tracer:
    """Spans around the harness's own calls into each layer.

    Disabled, `span()` costs one attribute test. Enabled, spans are
    kept in memory (name, layer, start, end, parent) on an epoch-ns
    clock that the helper's spans share, and exported when the run
    ends.
    """

    def __init__(self):
        self.enabled = False
        self.spans = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.epoch0 = time.time_ns()
        self.perf0 = time.perf_counter_ns()

    def now(self):
        return self.epoch0 + (time.perf_counter_ns() - self.perf0)

    def span(self, name, layer):
        return _Span(self, name, layer) if self.enabled else _NOOP

    def _open(self, name, layer):
        stack = self.local.__dict__.setdefault("stack", [])
        rec = {
            "name": name,
            "layer": layer,
            "start": self.now(),
            "end": None,
            "parent": stack[-1]["id"] if stack else getattr(self.local, "root", None),
            "tid": getattr(self.local, "tid", 1),
        }
        with self.lock:
            rec["id"] = len(self.spans) + 1
            self.spans.append(rec)
        stack.append(rec)
        return rec

    def _close(self, rec):
        rec["end"] = self.now()
        self.local.stack.pop()

    def current(self):
        stack = self.local.__dict__.get("stack")
        return stack[-1]["id"] if stack else None

    def adopt(self, parent_id, tid):
        """Makes spans opened on this thread children of `parent_id`."""
        self.local.root = parent_id
        self.local.tid = tid

    def add_external(self, spans, tid, parent_name):
        """Adds the helper's spans under the latest span called
        `parent_name`, nesting them by time containment."""
        if not self.enabled:
            return
        parent = next(s["id"] for s in reversed(self.spans) if s["name"] == parent_name)
        stack = []
        for s in sorted(spans, key=lambda s: (s["start_ns"], -s["end_ns"])):
            while stack and s["start_ns"] >= stack[-1]["end"]:
                stack.pop()
            rec = {
                "name": s["name"],
                "layer": s["layer"],
                "start": s["start_ns"],
                "end": s["end_ns"],
                "parent": stack[-1]["id"] if stack else parent,
                "tid": tid,
            }
            with self.lock:
                rec["id"] = len(self.spans) + 1
                self.spans.append(rec)
            stack.append(rec)

    def children(self):
        kids = {}
        for s in self.spans:
            kids.setdefault(s["parent"], []).append(s)
        return kids

    def covered(self, span, kids):
        """Nanoseconds of `span` covered by the union of its children."""
        ivs = sorted(
            (max(k["start"], span["start"]), min(k["end"], span["end"])) for k in kids.get(span["id"], [])
        )
        total, cur_s, cur_e = 0, None, None
        for s, e in ivs:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total

    def self_times(self):
        """Seconds of each layer's spans not covered by child spans."""
        kids = self.children()
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            own = (s["end"] - s["start"]) - self.covered(s, kids)
            out[s["layer"]] = out.get(s["layer"], 0.0) + own / 1e9
        return out

    def chrome(self):
        t0 = min(s["start"] for s in self.spans)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "perfbench harness"}}]
        names = {1: "harness", 10: "perfbench-layers"}
        for tid in sorted({s["tid"] for s in self.spans}):
            label = names.get(tid, f"client {tid - 1}")
            events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": tid, "args": {"name": label}})
        for s in sorted(self.spans, key=lambda s: (s["start"], s["id"])):
            events.append(
                {
                    "name": s["name"],
                    "cat": s["layer"],
                    "ph": "X",
                    "ts": (s["start"] - t0) / 1e3,
                    "dur": (s["end"] - s["start"]) / 1e3,
                    "pid": 1,
                    "tid": s["tid"],
                    "args": {"id": s["id"], "parent": s["parent"] or 0, "layer": s["layer"]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _Span:
    def __init__(self, tracer, name, layer):
        self.tracer, self.name, self.layer = tracer, name, layer

    def __enter__(self):
        self.rec = self.tracer._open(self.name, self.layer)
        return self.rec

    def __exit__(self, *exc):
        self.tracer._close(self.rec)
        return False


class _Noop:
    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NOOP = _Noop()

# ---------------------------------------------------------------- helpers


def median(xs):
    return statistics.median(xs)


def tail(samples):
    """(value, percentile, beyond): the highest ladder percentile with
    at least TAIL_BEYOND samples above it (nearest rank), else the max."""
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(q / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], q, n - rank
    return xs[-1], 100.0, 0


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "target")


class Ctx:
    """Paths, binaries, counters and the tracer of one run."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.target = target_dir()
        self.bin = os.path.join(self.target, "release")
        self.spindle = os.path.join(self.bin, "spindle")
        self.experiments = os.path.join(self.bin, "experiments")
        self.helper = os.path.join(self.bin, "perfbench-layers")
        self.home = os.path.join(self.target, "perfbench")
        self.cache = os.path.join(self.home, "cache")
        self.work = os.path.join(self.home, f"run-{os.getpid()}")
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.lock = threading.Lock()
        self.inputs = None
        self.launches = 0
        self.daemons = []

    def op(self, ok, what):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                log(f"# FAILED: {what}")
        return ok

    def check(self, ok, what):
        if not self.op(ok, what):
            raise Failure(what)

    def build_key(self, path):
        """Content hash of a binary: cached references belong to one build."""
        return sha256_file(path)[:16]


def run_program(ctx, argv, name, layer, env=None):
    """Runs one program to completion, timed from outside.

    Returns (wall_s, peak_rss_mb, exit_code, stdout_bytes). Peak RSS
    is the child's own high-water mark from wait4's rusage.
    """
    err_path = os.path.join(ctx.work, "stderr.txt")
    with ctx.tracer.span(name, layer), open(err_path, "wb") as err:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=env)
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        with open(err_path, "rb") as f:
            log(f"# {name} exited {p.returncode}: {f.read()[-2000:].decode(errors='replace')}")
    return wall, ru.ru_maxrss / 1024.0, p.returncode, out


def helper(ctx, *args, layer="harness", name=None):
    """Runs a perfbench-layers subcommand and returns its JSON document."""
    _, _, code, out = run_program(ctx, [ctx.helper, *map(str, args)], name or f"helper.{args[0]}", layer)
    if code != 0:
        raise Failure(f"perfbench-layers {args[0]} exited {code}")
    return json.loads(out)


def build(repo, target):
    # One target directory for both workspaces, so the helper lands
    # beside the program's binaries.
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        ["cargo", "build", "--release", "--offline", "-p", "spindle-cli", "-p", "spindle-bench", "--bins"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/layers/Cargo.toml"],
    ]
    for cmd in commands:
        r = subprocess.run(cmd, cwd=repo, env=env, stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno())
        if r.returncode != 0:
            log(f"# build failed: {' '.join(cmd)}")
            sys.exit(2)


def make_inputs(ctx):
    if ctx.inputs is None:
        sizes = ",".join(f"{k}={v}" for k, v in SATURATED_SIZES.items())
        d = os.path.join(ctx.work, "inputs")
        doc = helper(ctx, "inputs", "--seed", ctx.seed, "--dir", d, "--sizes", sizes, "--mail-requests", MAIL_REQUESTS)
        ctx.inputs = d
        log(f"# inputs (seed {ctx.seed}): {json.dumps(doc)}")
    return ctx.inputs


def cached_digest(ctx, name, compute):
    """A reference digest recorded once per build in the cache."""
    path = os.path.join(ctx.cache, name)
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip()
    digest = compute()
    if digest is not None:
        tmp = f"{path}.{os.getpid()}"
        with open(tmp, "w") as f:
            f.write(digest + "\n")
        os.replace(tmp, path)
    return digest


def timed_rounds(ctx, budget_s, round_fn, max_rounds=None, untraced=None):
    """Repeats `round_fn` while another round fits in `budget_s`; at
    least once. Returns the round walls.

    With an `untraced` list, each traced round is preceded by one with
    tracing off, whose wall goes to `untraced`: interleaving keeps the
    machine's drift out of the tracing-overhead ratio.
    """
    walls = []
    tracer = ctx.tracer
    t0 = time.perf_counter()
    while True:
        if untraced is not None:
            tracer.enabled = False
            r0 = time.perf_counter()
            round_fn()
            untraced.append(time.perf_counter() - r0)
            tracer.enabled = True
        with tracer.span(f"round.{len(walls)}", "harness"):
            r0 = time.perf_counter()
            round_fn()
            walls.append(time.perf_counter() - r0)
        if max_rounds and len(walls) >= max_rounds:
            break
        per_round = median(walls) + (median(untraced) if untraced else 0.0)
        if time.perf_counter() - t0 + per_round > budget_s:
            break
    return walls


# ---------------------------------------------------------------- paper_matrix


def matrix_reference(ctx):
    """Digest of the `--jobs 1` matrix stdout on this build."""
    key = ctx.build_key(ctx.experiments)

    def compute():
        log("# recording the --jobs 1 reference matrix (once per build)")
        _, _, code, out = run_program(ctx, [ctx.experiments, "--jobs", "1", "--quiet"], "engine.matrix.jobs1", "engine")
        return hashlib.sha256(out).hexdigest() if ctx.op(code == 0, "experiments --jobs 1") else None

    return cached_digest(ctx, f"matrix-jobs1-{key}.sha256", compute)


def matrix_setup(ctx, reps, outs):
    """Walls of `reps` zero-work `experiments --quiet t1` runs; their
    stdouts go into `outs`, which must end up with one member."""
    walls = []
    for _ in range(reps):
        wall, _, code, out = run_program(ctx, [ctx.experiments, "--quiet", "t1"], "engine.setup.t1", "engine")
        if ctx.op(code == 0 and out, "experiments --quiet t1"):
            walls.append(wall)
            outs.add(out)
    ctx.check(len(outs) == 1, "experiments t1 output differs between invocations")
    return walls


def matrix_phase(ctx, budget_s, record=None, max_rounds=None, untraced=None):
    reference = matrix_reference(ctx)
    state = {"rss": 0.0, "lat": []}

    def one():
        argv = [ctx.experiments, "--jobs", "2", "--quiet"]
        if record:
            argv.append(f"--record={record}")
        wall, rss, code, out = run_program(ctx, argv, "engine.matrix", "engine")
        state["rss"] = max(state["rss"], rss)
        ok = code == 0 and hashlib.sha256(out).hexdigest() == reference
        if ctx.op(ok, "paper matrix stdout differs from the --jobs 1 reference"):
            state["lat"].append(wall * 1e3)

    walls = timed_rounds(ctx, budget_s, one, max_rounds, untraced)
    return walls, state["rss"], state["lat"]


# ---------------------------------------------------------------- saturated_replay


def parse_summary(out):
    rows = {}
    for line in out.decode().splitlines():
        parts = line.rsplit(None, 1)
        if len(parts) == 2 and not line.startswith(("==", "--")):
            rows[parts[0].strip()] = parts[1]
    return rows


def check_summary(ctx, sched, out, want):
    """The CLI's summary table must show the library's SimResult."""
    rows = parse_summary(out)
    try:
        ok = (
            int(rows["requests"]) == want["requests"]
            and abs(float(rows["utilization"]) - want["utilization"]) <= 0.5e-4 + 1e-12
            and abs(float(rows["mean response (ms)"]) - want["mean_response_ms"]) <= 0.5e-2 + 1e-9
            and int(rows["writes cached"]) == want["writes_cached"]
            and int(rows["writes forced"]) == want["writes_forced"]
            and int(rows["destages"]) == want["destages"]
        )
    except (KeyError, ValueError):
        ok = False
    ctx.check(ok, f"{sched}: simulate summary disagrees with the library's SimResult")


def saturated_expect(ctx):
    d = make_inputs(ctx)
    return helper(ctx, "expect", "--dir", d, "--scheds", ",".join(SATURATED_SIZES), name="helper.expect")


def saturated_setup(ctx, reps):
    """Seconds of `reps` in-process text decodes of the whole trace."""
    d = make_inputs(ctx)
    doc = helper(ctx, "decode", "--in", os.path.join(d, "saturated.txt"), "--reps", reps,
                 layer="trace", name="trace.decode")
    return doc["samples_s"]


def saturated_phase(ctx, budget_s, expected, max_rounds=None, untraced=None):
    d = make_inputs(ctx)
    key = ctx.build_key(ctx.spindle)
    state = {"rss": 0.0, "lat": [], "first": {}}

    def one():
        for sched in SATURATED_SIZES:
            path = os.path.join(d, f"saturated.{sched}.txt")
            wall, rss, code, out = run_program(
                ctx, [ctx.spindle, "simulate", "--in", path, "--scheduler", sched], f"disk.simulate.{sched}", "disk"
            )
            state["rss"] = max(state["rss"], rss)
            if not ctx.op(code == 0, f"spindle simulate --scheduler {sched}"):
                continue
            state["lat"].append(wall * 1e3)
            if sched not in state["first"]:
                # First replay of this run: checked against the library
                # and against the digest recorded for this build + seed.
                state["first"][sched] = out
                check_summary(ctx, sched, out, expected["schedulers"][sched])
                digest = hashlib.sha256(out).hexdigest()
                recorded = cached_digest(ctx, f"saturated-{key}-{ctx.seed}-{sched}.sha256", lambda: digest)
                ctx.check(recorded == digest, f"{sched}: simulate stdout differs from its recorded digest")
            else:
                ctx.check(out == state["first"][sched], f"{sched}: simulate stdout changed between replays")

    walls = timed_rounds(ctx, budget_s, one, max_rounds, untraced)
    return walls, state["rss"], state["lat"]


# ---------------------------------------------------------------- served_jobs


def http_get(addr, path, timeout=HTTP_TIMEOUT_S):
    host, port = addr
    c = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        c.request("GET", path)
        r = c.getresponse()
        return r.status, r.read()
    finally:
        c.close()


class Daemon:
    """One `spindle serve` process on an ephemeral port."""

    def __init__(self, ctx, tag):
        self.dir = os.path.join(ctx.work, f"serve-{tag}")
        self.err_path = os.path.join(ctx.work, f"serve-{tag}.err")
        self.err = open(self.err_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [ctx.spindle, "serve", "127.0.0.1:0", "--parallel", str(SERVE_PARALLEL), "--dir", self.dir],
            stdout=subprocess.DEVNULL,
            stderr=self.err,
        )
        self.addr = None
        self.rss_mb = None
        ctx.daemons.append(self)

    def wait_ready(self, dither_s=0.0):
        """Seconds from launch to the first `/healthz` 200, less the
        `dither_s` the first probe waits after the address is known."""
        deadline = self.t0 + 30
        marker = b"# serving jobs on http://"
        while self.addr is None:
            with open(self.err_path, "rb") as f:
                for line in f:
                    if line.startswith(marker) and line.endswith(b"\n"):
                        host, port = line[len(marker):].decode().strip().rsplit(":", 1)
                        self.addr = (host, int(port))
            if self.addr is None:
                if self.proc.poll() is not None or time.perf_counter() > deadline:
                    raise Failure("spindle serve did not announce its address")
                time.sleep(0.0005)
        time.sleep(dither_s)
        while True:
            try:
                status, _ = http_get(self.addr, "/healthz", timeout=5)
                if status == 200:
                    return time.perf_counter() - self.t0 - dither_s
            except OSError:
                pass
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                raise Failure("spindle serve never answered /healthz")
            time.sleep(0.0005)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failure("daemon VmHWM unreadable")

    def stop(self):
        """Drains the daemon with SIGTERM and removes its directory;
        idempotent, so the run's final clean-up can call it again."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        shutil.rmtree(self.dir, ignore_errors=True)


def submit_and_wait(ctx, addr, spec_body, expected_stdout, dither_s):
    """One closed-loop job: POST, wait for the SSE `end` event, fetch
    and compare stdout.txt. Returns the job's record; `ok` is set only
    when every step passed."""
    host, port = addr
    rec = {}
    t0 = time.perf_counter()
    with ctx.tracer.span("serve.submit", "serve"):
        c = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
        c.request("POST", "/jobs", body=spec_body, headers={"Content-Type": "application/json"})
        r = c.getresponse()
        body = r.read()
        c.close()
    rec["submit_ms"] = (time.perf_counter() - t0) * 1e3
    if r.status == 429:
        rec["refused"] = True
        ctx.op(False, "job refused with 429")
        return rec
    if not ctx.op(r.status == 201, f"POST /jobs answered {r.status}"):
        return rec
    job_id = json.loads(body)["id"]
    rec["id"] = job_id
    end = None
    with ctx.tracer.span("serve.wait_end", "serve"):
        time.sleep(dither_s)
        c = http.client.HTTPConnection(host, port, timeout=HTTP_TIMEOUT_S)
        c.request("GET", f"/jobs/{job_id}/events")
        r = c.getresponse()
        while True:
            line = r.fp.readline()
            if not line or line.startswith(b"event: end"):
                break
            if line.startswith(b"data: "):
                ev = json.loads(line[6:])
                if ev.get("type") == "end":
                    end = ev
        rec["latency_ms"] = (time.perf_counter() - t0) * 1e3
        c.close()
    if not ctx.op(end is not None and end.get("state") == "done", f"{job_id} ended {end}"):
        return rec
    with ctx.tracer.span("serve.fetch_stdout", "serve"):
        status, out = http_get(addr, f"/jobs/{job_id}/artifacts/stdout.txt")
    ok = status == 200 and out == expected_stdout
    if ctx.op(ok, f"{job_id}: stdout.txt differs from direct spindle simulate"):
        rec["ok"] = True
    return rec


def served_reference(ctx):
    """Direct `spindle simulate` on the mail trace: expected stdout and
    its wall times."""
    mail = os.path.join(make_inputs(ctx), "mail.bin")
    outs, walls = set(), []
    for _ in range(5):
        wall, _, code, out = run_program(ctx, [ctx.spindle, "simulate", "--in", mail], "disk.simulate.mail", "disk")
        if ctx.op(code == 0, "direct spindle simulate on the mail trace"):
            outs.add(out)
            walls.append(wall)
    ctx.check(len(outs) == 1, "direct simulate stdout differs between runs")
    return outs.pop(), median(walls)


def served_setup(ctx, reps, keep_last):
    """Launch→/healthz seconds of `reps` daemon launches, and the last
    daemon, left running if `keep_last`.

    The daemon's accept loop polls every 10 ms, so a probe sent at a
    fixed delay after the announce lands in one of two phases and the
    median flips between them. Each probe waits a seeded uniform delay
    of one poll period first, and that delay is subtracted.
    """
    rng = random.Random(ctx.seed * 1000 + ctx.launches)
    times = []
    for i in range(reps):
        d = Daemon(ctx, ctx.launches)
        ctx.launches += 1
        try:
            with ctx.tracer.span("serve.launch", "serve"):
                times.append(d.wait_ready(rng.uniform(0, ACCEPT_DITHER_S)))
            ctx.op(True, "daemon launch")
        except Failure as e:
            ctx.op(False, str(e))
            d.stop()
            raise
        if not (keep_last and i + 1 == reps):
            d.stop()
    return times, d


def served_phase(ctx, daemon, budget_s, expected_stdout, max_rounds=None, untraced=None):
    mail = os.path.abspath(os.path.join(make_inputs(ctx), "mail.bin"))
    body = json.dumps({"kind": "simulate", "input": mail})
    records = []
    parent = ctx.tracer.current

    def client(tid, round_parent, rng):
        ctx.tracer.adopt(round_parent, tid)
        for _ in range(JOBS_PER_CLIENT):
            try:
                rec = submit_and_wait(ctx, daemon.addr, body, expected_stdout, rng.uniform(0, SSE_DITHER_S))
            except (OSError, ValueError, http.client.HTTPException) as e:
                ctx.op(False, f"job request failed: {e}")
                continue
            with ctx.lock:
                records.append(rec)

    rngs = [random.Random(ctx.seed * CLIENTS + i) for i in range(CLIENTS)]

    def one():
        round_parent = parent()
        threads = [threading.Thread(target=client, args=(i + 2, round_parent, rngs[i])) for i in range(CLIENTS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if daemon.rss_mb is None and len(records) >= RSS_AFTER_JOBS:
            daemon.rss_mb = daemon.peak_rss_mb()

    walls = timed_rounds(ctx, budget_s, one, max_rounds, untraced)
    return walls, records


def served_job_breakdown(ctx, daemon, records):
    """Daemon-side queue wait and run time of each job, from its trace."""
    queue, run, secs = [], [], []
    for rec in records:
        if not rec.get("ok"):
            continue
        status, body = http_get(daemon.addr, f"/jobs/{rec['id']}/trace")
        ctx.check(status == 200, f"GET /jobs/{rec['id']}/trace answered {status}")
        for e in json.loads(body)["traceEvents"]:
            if e.get("pid") == 1 and e.get("ph") == "X":
                if e["name"] == "queue.wait":
                    queue.append(e["dur"] / 1e3)
                elif e["name"] == "attempt":
                    run.append(e["dur"] / 1e3)
        status, body = http_get(daemon.addr, f"/jobs/{rec['id']}")
        ctx.check(status == 200, f"GET /jobs/{rec['id']} answered {status}")
        secs.append(json.loads(body)["secs"])
    return queue, run, secs


def trace_context_ratio(ctx):
    """Wall of `spindle simulate` with SPINDLE_TRACE_CONTEXT set over
    the wall without it, medians of interleaved runs."""
    mail = os.path.join(make_inputs(ctx), "mail.bin")
    env = dict(os.environ, SPINDLE_TRACE_CONTEXT="%016x:%016x" % (0x5EED, ctx.seed))
    plain, traced = [], []
    for _ in range(7):
        for target, e, name in ((plain, None, "obs.simulate.plain"), (traced, env, "obs.simulate.trace_context")):
            wall, _, code, _ = run_program(ctx, [ctx.spindle, "simulate", "--in", mail], name, "obs", env=e)
            if ctx.op(code == 0, "spindle simulate with/without a trace context"):
                target.append(wall)
    return median(traced) / median(plain)


# ---------------------------------------------------------------- workloads


def e2e_metrics(walls, rss, setup, lat):
    p50 = median(lat) if lat else float("nan")
    tail_v, tail_q, beyond = tail(lat) if lat else (float("nan"), 0.0, 0)
    log(f"# job latency: {len(lat)} samples, p50 {p50:.3f} ms, tail p{tail_q:g} {tail_v:.3f} ms ({beyond} beyond)")
    return {
        "wall_s": (median(walls), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
        "job_latency_p50_ms": (p50, "ms"),
        "job_latency_tail_ms": (tail_v, "ms"),
    }


def run_untraced(ctx, workload, budget_s):
    """The workload's set-up and timed phase; end-to-end metrics."""
    # Set-up is sampled in two halves, before and after the timed phase,
    # so its median spans the run's changes in host load.
    reps = SETUP_REPS[workload]
    first, second = (reps + 1) // 2, reps // 2
    if workload == "paper_matrix":
        outs = set()
        setup = matrix_setup(ctx, first, outs)
        walls, rss, lat = matrix_phase(ctx, budget_s)
        setup += matrix_setup(ctx, second, outs)
    elif workload == "saturated_replay":
        expected = saturated_expect(ctx)
        setup = saturated_setup(ctx, first)
        walls, rss, lat = saturated_phase(ctx, budget_s, expected)
        setup += saturated_setup(ctx, second)
    else:
        expected_stdout, _ = served_reference(ctx)
        setup, daemon = served_setup(ctx, first, keep_last=True)
        try:
            walls, records = served_phase(ctx, daemon, budget_s, expected_stdout)
            rss = daemon.rss_mb if daemon.rss_mb is not None else daemon.peak_rss_mb()
        finally:
            daemon.stop()
        setup += served_setup(ctx, second, keep_last=False)[0]
        lat = [r["latency_ms"] for r in records if r.get("ok")]
    log(f"# {workload} set-up samples (ms): {[round(t * 1e3, 2) for t in setup]}")
    log(f"# {workload}: {len(walls)} rounds, walls {[round(w, 3) for w in walls]}")
    return e2e_metrics(walls, rss, median(setup), lat)


def run_traced(ctx, workload, budget_s):
    """Per-layer metrics: every workload's phase once with spans, the
    layer kernels, and `workload`'s phase interleaved untraced/traced
    for the tracing overhead and span coverage."""
    m = {}
    tr = ctx.tracer
    untraced = []

    def mine(name):
        # (budget, max rounds, untraced walls) for one workload's phase.
        if name != workload:
            return 0, 1, None
        return budget_s, (1 if name == "paper_matrix" else None), untraced

    record = os.path.join(ctx.work, "record.json")
    tr.enabled = True
    phases = {}
    with tr.span("perfbench.traced", "harness"):
        expected = saturated_expect(ctx)
        tr.add_external(expected["spans"], 10, "helper.expect")
        expected_stdout, direct_s = served_reference(ctx)
        with tr.span("phase.paper_matrix", "harness") as span:
            budget, rounds, untr = mine("paper_matrix")
            walls, _, _ = matrix_phase(ctx, budget, record, rounds, untr)
            phases["paper_matrix"] = (span, walls)
        with tr.span("phase.saturated_replay", "harness") as span:
            budget, rounds, untr = mine("saturated_replay")
            walls, _, _ = saturated_phase(ctx, budget, expected, rounds, untr)
            phases["saturated_replay"] = (span, walls)
        _, daemon = served_setup(ctx, 1, keep_last=True)
        try:
            with tr.span("phase.served_jobs", "harness") as span:
                budget, rounds, untr = mine("served_jobs")
                walls, records = served_phase(ctx, daemon, budget, expected_stdout, rounds, untr)
                phases["served_jobs"] = (span, walls)
            queue, run, secs = served_job_breakdown(ctx, daemon, records)
        finally:
            daemon.stop()
        with tr.span("layers", "harness"):
            doc = helper(ctx, "layers", "--dir", make_inputs(ctx), "--seed", ctx.seed, name="helper.layers")
            tr.add_external(doc["spans"], 10, "helper.layers")
        with tr.span("obs.trace_context_ratio", "harness"):
            m["obs.trace_context_ratio"] = (trace_context_ratio(ctx), "ratio")
    tr.enabled = False
    for k, v in doc["metrics"].items():
        m[k] = (v, unit_of(k))

    # engine / bench: the program's own per-experiment record.
    with open(record) as f:
        rec = json.load(f)
    exp = {r["id"]: r["secs"] for r in rec["results"]}
    for k, v in exp.items():
        m[f"matrix.exp_s.{k}"] = (v, "s")
    m["engine.critical_path_s"] = (max(exp.values()), "s")
    m["engine.pool_efficiency"] = (sum(exp.values()) / (rec["jobs"] * phases["paper_matrix"][1][-1]), "ratio")

    # disk: in-process replays of the saturated prefixes.
    sims = expected["schedulers"]
    for sched, s in sims.items():
        m[f"disk.ns_per_req.{sched}"] = (s["sim_s"] * 1e9 / s["requests"], "ns")
    m["disk.backlog_peak"] = (max(s["backlog_peak"] for s in sims.values()), "count")
    in_process = sum(s["sim_s"] + s["decode_s"] for s in sims.values())
    m["disk.replay_share_of_wall"] = (in_process / median(phases["saturated_replay"][1]), "ratio")

    # serve: harness-side and daemon-side views of the same jobs.
    lat = [r["latency_ms"] for r in records if r.get("ok")]
    m["serve.submit_ms"] = (median([r["submit_ms"] for r in records]), "ms")
    m["serve.queue_wait_ms"] = (median(queue), "ms")
    m["serve.run_ms"] = (median(run), "ms")
    m["serve.job_secs"] = (median(secs), "s")
    m["serve.direct_simulate_ms"] = (direct_s * 1e3, "ms")
    m["serve.overhead_ms"] = (median(lat) - direct_s * 1e3, "ms")
    m["serve.refused_frac"] = (sum(1 for r in records if r.get("refused")) / max(1, len(records)), "ratio")

    # This workload's traced rounds: span coverage and tracing overhead.
    span, traced_walls = phases[workload]
    kids = tr.children()
    rounds = kids.get(span["id"], [])
    covered = sum(tr.covered(r, kids) for r in rounds)
    total = sum(r["end"] - r["start"] for r in rounds)
    m["span_coverage_frac"] = (covered / total, "ratio")
    m["uncovered_s"] = ((total - covered) / 1e9, "s")
    m["trace_overhead_frac"] = (median(traced_walls) / median(untraced) - 1.0, "ratio")
    self_times = tr.self_times()
    for layer, secs_ in self_times.items():
        m[f"self_s.{layer}"] = (secs_, "s")
    log(f"# traced {workload}: layer spans cover {covered / total:.4f} of {len(rounds)} rounds "
        f"({(total - covered) / 1e9:.4f} s uncovered); self time "
        + ", ".join(f"{k} {v:.3f}s" for k, v in self_times.items()))
    export_trace(ctx, workload)
    return m


def export_trace(ctx, workload):
    path = os.path.join(ctx.home, f"trace-{workload}-{ctx.seed}.json")
    with open(path, "w") as f:
        json.dump(ctx.tracer.chrome(), f)
    _, _, code, _ = run_program(ctx, [ctx.spindle, "trace", "check", path], "trace.check", "harness")
    ctx.check(code == 0, f"spindle trace check {path}")
    log(f"# wrote {path} ({len(ctx.tracer.spans)} spans; spindle trace check ok)")


def unit_of(name):
    if name.endswith("_mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s") or "_per_s." in name:
        return "1/s"
    if "ns_per_req" in name:
        return "ns"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def run_one(ctx, workload, trace):
    os.makedirs(ctx.work, exist_ok=True)
    os.makedirs(ctx.cache, exist_ok=True)
    try:
        # Recorded by the first run in a checkout, whichever workload it
        # is: that run also builds, and has the time.
        matrix_reference(ctx)
        if trace:
            metrics = run_traced(ctx, workload, ctx.seconds)
        else:
            metrics = run_untraced(ctx, workload, ctx.seconds)
    finally:
        for d in ctx.daemons:
            d.stop()
        shutil.rmtree(ctx.work, ignore_errors=True)
    if trace:
        metrics["failed_frac"] = (ctx.failed / max(1, ctx.attempted), "ratio")
    return metrics


def report(ctx, metrics):
    """Prints the metrics on stderr and the result line on stdout."""
    correct = ctx.failed == 0 and bool(metrics) and all(math.isfinite(v) for v, _ in metrics.values())
    for name, (value, unit) in sorted(metrics.items()):
        log(f"{name:42s} {value:16.6f} {unit}")
    return {
        "correct": correct,
        "attempted": max(1, ctx.attempted),
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }


def run_checked(args, workload, trace):
    ctx = Ctx(args)
    try:
        metrics = run_one(ctx, workload, trace)
    except Failure as e:
        log(f"# run aborted: {e}")
        metrics = {}
    except Exception:  # noqa: BLE001 - any other error still ends in a result line
        log(f"# run aborted:\n{traceback.format_exc()}")
        ctx.op(False, "unexpected error in the harness")
        metrics = {}
    return report(ctx, metrics)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    args = ap.parse_args()
    repo = os.getcwd()
    if not (os.path.isfile(os.path.join(repo, "Cargo.toml")) and os.path.isdir(os.path.join(repo, "crates"))):
        log("perfbench: run from the root of a spindle checkout (no Cargo.toml / crates here)")
        sys.exit(2)
    if not args.all and not args.workload:
        ap.error("--workload or --all is required")
    build(repo, target_dir())
    if not args.all:
        print(json.dumps(run_checked(args, args.workload, args.trace)), flush=True)
        return
    # Every workload, untraced then traced; one record of everything.
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            log(f"## {workload} --trace {trace} (seed {args.seed})")
            runs[f"{workload}/trace{trace}"] = run_checked(args, workload, trace)
    out = os.path.join(target_dir(), "perfbench", "results.json")
    with open(out, "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "runs": runs}, f, indent=1)
    log(f"# wrote {out}")
    combined = {
        "correct": all(r["correct"] for r in runs.values()),
        "attempted": sum(r["attempted"] for r in runs.values()),
        "failed": sum(r["failed"] for r in runs.values()),
        "metrics": {
            f"{key.split('/')[0]}.{name}": m
            for key, r in runs.items()
            for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
