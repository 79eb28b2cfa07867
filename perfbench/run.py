#!/usr/bin/env python3
"""The repository benchmark: Table I, per-pass eqcheck and a daemon mix.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload table1|eqcheck-each|serve-mix|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

It builds the worker (perfbench/perfbench.exe) and the daemon
(bin/resynthd.exe) with dune, runs the workload, checks every output, and
prints each metric as "name = value unit", then a "record:" line with the
provenance and per-row detail, and as its last line one JSON object with
the keys correct, attempted, failed and metrics; it exits with 1 when any
check failed.  --trace 0 reports the end_to_end metrics of BENCHMARK.json,
--trace 1 the per_layer ones.

Workloads (BENCHMARK.json says why each exists):
  table1        Table I rows with the flow's sequential-equivalence check,
                serial, one worker process per pass; s420, s344 and planet
                left out.
  eqcheck-each  all 21 rows, flow check off, per-pass eqcheck on, 2 jobs,
                one worker process per pass.
  serve-mix     `resynthd serve --jobs 2` on a Unix socket under a
                temporary directory; the worker is the load generator,
                two connections in a closed loop.

--smoke runs the seconds-long configuration (s27 and s208 rows, 10 serve
requests) that `dune runtest` uses; --workload all runs every workload.
"""

import argparse
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time

BUILD_DIR = ".bench_build"
WORKER = "perfbench/perfbench.exe"
DAEMON = "bin/resynthd.exe"
EXPECTED = "perfbench/expected_rows.txt"
WORKLOADS = ["table1", "eqcheck-each", "serve-mix"]
JOBS = {"table1": 1, "eqcheck-each": 2, "serve-mix": 2}
SETUP_REPS = 3  # daemon spawns timed per serve-mix run
TABLE_SETUP_REPS = 9  # set-up-only worker spawns timed per table run
CHILD_TIMEOUT_S = 150.0
SHUTDOWN_TIMEOUT_S = 30.0


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def wait_child(proc, timeout):
    """Wait for proc; return (exit status, max RSS in KiB) or kill it."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage.ru_maxrss
        time.sleep(0.01)


def run_worker(cmd):
    """Run a worker to completion; return (its result object, max RSS KiB)."""
    with tempfile.TemporaryFile(dir=".") as out:
        proc = subprocess.Popen(cmd, stdout=out)
        code, rss = wait_child(proc, CHILD_TIMEOUT_S)
        out.seek(0)
        lines = out.read().decode().splitlines()
    if code != 0 or not lines:
        fail("worker %s exited with %s" % (" ".join(cmd), code))
    return json.loads(lines[-1]), rss


# --- the serve-mix daemon lifecycle -------------------------------------------------


def daemon_request(path, doc, timeout=5.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(path)
        s.sendall((json.dumps(doc) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            buf += chunk
    return json.loads(buf.decode())


class Daemon:
    """`resynthd serve` on a Unix socket; spawn-to-ping time is its set-up."""

    def __init__(self, binary, sock, log_path):
        self.sock = sock
        self.log = open(log_path, "ab")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            [binary, "serve", "--socket", sock, "--jobs", str(JOBS["serve-mix"])],
            stdout=subprocess.DEVNULL, stderr=self.log)
        deadline = t0 + 30.0
        while True:
            try:
                if daemon_request(sock, {"op": "ping"}).get("ok"):
                    break
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.kill()
                fail("daemon did not answer ping")
            time.sleep(0.005)
        self.ready_s = time.monotonic() - t0

    def shutdown(self):
        """Drain and stop; return (problems, max RSS KiB)."""
        problems = []
        try:
            daemon_request(self.sock, {"op": "shutdown", "drain": True},
                           timeout=SHUTDOWN_TIMEOUT_S)
        except (OSError, ValueError) as e:
            problems.append("shutdown request failed: %s" % e)
        code, rss = wait_child(self.proc, SHUTDOWN_TIMEOUT_S)
        self.log.close()
        if code is None:
            problems.append("daemon did not exit after a drain shutdown")
        elif code == 3:
            problems.append("daemon sanitizer reported findings (exit 3)")
        elif code != 0:
            problems.append("daemon exited with code %d" % code)
        return problems, rss

    def kill(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
            self.proc.wait()
        self.log.close()


def run_serve_mix(args, worker, daemon_bin):
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=".")
    sock = os.path.join(os.path.relpath(tmp), "d.sock")
    log_path = os.path.join(tmp, "daemon.log")
    problems = []
    daemon = None
    try:
        ready = []
        for _ in range(1 if args.smoke else SETUP_REPS):
            if daemon is not None:
                p, _ = daemon.shutdown()
                problems += p
            daemon = Daemon(daemon_bin, sock, log_path)
            ready.append(daemon.ready_s)
        cmd = [worker, "loadgen", "--socket", sock, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        result, _ = run_worker(cmd)
        p, rss = daemon.shutdown()
        daemon = None
        problems += p
        if problems:
            with open(log_path, "rb") as f:
                sys.stderr.write(f.read().decode(errors="replace"))
    finally:
        if daemon is not None:
            daemon.kill()
        shutil.rmtree(tmp, ignore_errors=True)
    metrics = result["metrics"]
    cold = metrics.pop("cold_pass_s")
    metrics["setup_s"] = {"value": statistics.median(ready) + cold["value"],
                          "unit": "s"}
    result["detail"]["daemon_ready_s"] = ready
    result["detail"]["cold_pass_s"] = cold["value"]
    # each daemon lifecycle (spawn, serve, drain) is one checked operation
    result["attempted"] += len(ready)
    result["failed"] += len(problems)
    result["failures"] += problems
    return result, rss


def quantile(p, xs):
    """The p-th percentile, interpolated between the closest ranks."""
    s = sorted(xs)
    x = (len(s) - 1) * p / 100.0
    i = int(x)
    return s[i] if i + 1 == len(s) else s[i] + (s[i + 1] - s[i]) * (x - i)


def table_pass(args, name, worker, trace, extra=()):
    """One pass in a fresh worker process: (result, set-up seconds, RSS)."""
    cmd = [worker, "table", "--workload", name, "--expected", EXPECTED,
           "--trace", str(trace)] + (["--smoke"] if args.smoke else []) + list(extra)
    spawned = time.time()
    result, rss = run_worker(cmd)
    setup = result["metrics"].pop("first_row_at")["value"] - spawned
    return result, setup, rss


def run_table(args, name, worker):
    """table1 / eqcheck-each: each pass is a cold process (a user's run).

    --trace 0 repeats passes until the next would overrun --seconds.  --trace 1 runs one
    untraced pass, one traced pass and the per-layer breakdown, each in a
    process of its own."""
    passes = []
    start = time.monotonic()
    while True:
        passes.append(table_pass(args, name, worker, 0))
        walls = [r["metrics"]["wall_s"]["value"] for r, _, _ in passes]
        if args.trace or time.monotonic() - start + statistics.median(walls) > args.seconds:
            break
    first = passes[0][0]
    result = {"attempted": sum(r["attempted"] for r, _, _ in passes),
              "failed": sum(r["failed"] for r, _, _ in passes),
              "failures": [f for r, _, _ in passes for f in r["failures"]],
              "metrics": first["metrics"], "detail": first["detail"]}
    per_row = [r["detail"].pop("row_s") for r, _, _ in passes]
    # a row's latency is its median over the run's passes; the rows differ
    # in size, so the percentiles interpolate between neighbouring rows
    row_s = [statistics.median(p[row] for p in per_row) for row in per_row[0]]
    # a worker's set-up takes milliseconds: time it in more processes that
    # stop where the first row would begin
    setups = [s for _, s, _ in passes]
    for _ in range(TABLE_SETUP_REPS):
        setups.append(table_pass(args, name, worker, 0, ["--setup-only"])[1])
    rss = statistics.median(m for _, _, m in passes)
    if args.trace:
        untraced_wall = walls[0]
        slow_row, slow_s = max(per_row[0].items(), key=lambda kv: kv[1])
        traced, setup, rss = table_pass(args, name, worker, 1)
        setups.append(setup)
        for k in ("attempted", "failed"):
            result[k] += traced[k]
        result["failures"] += traced["failures"]
        m = traced["metrics"]
        wall = m.pop("traced_wall_s")["value"]
        m["obs.trace_overhead_pct"] = {
            "value": 100.0 * (wall - untraced_wall) / untraced_wall, "unit": "%"}
        m["rows.slowest_s"] = {"value": slow_s, "unit": "s"}
        m["rows.slowest_share_pct"] = {"value": 100.0 * slow_s / untraced_wall, "unit": "%"}
        traced["detail"]["rows.slowest"] = slow_row
        traced["detail"]["row_s"] = per_row[0]
        cmd = [worker, "breakdown", "--workload", name, "--expected", EXPECTED,
               "--seed", str(args.seed)]
        breakdown, _ = run_worker(cmd + (["--smoke"] if args.smoke else []))
        for k in ("attempted", "failed"):
            result[k] += breakdown[k]
        result["failures"] += breakdown["failures"]
        m.update(breakdown["metrics"])
        traced["detail"].update(breakdown["detail"])
        result["metrics"], result["detail"] = m, traced["detail"]
    else:
        m = result["metrics"]
        m["wall_s"]["value"] = statistics.median(walls)
        m["latency_p50_ms"] = {"value": 1000.0 * quantile(50, row_s), "unit": "ms"}
        m["latency_p90_ms"] = {"value": 1000.0 * quantile(90, row_s), "unit": "ms"}
        m["throughput_rps"] = {"value": len(row_s) * len(walls) / sum(walls),
                               "unit": "1/s"}
        result["detail"]["passes_s"] = walls
    m["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    result["detail"]["setups_s"] = setups
    return result, rss


def run_workload(args, name, worker, daemon_bin):
    if name == "serve-mix":
        result, rss = run_serve_mix(args, worker, daemon_bin)
    else:
        result, rss = run_table(args, name, worker)
    result["metrics"]["peak_rss_mb"] = {"value": rss / 1024.0, "unit": "MB"}
    return result


# --- command line ---------------------------------------------------------------------


def provenance(args, name, result):
    commit = "unknown"
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    detail = result["detail"]
    return {"workload": name, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke,
            "jobs": detail.pop("jobs"), "cores": len(os.sched_getaffinity(0)),
            "ocaml": detail.pop("ocaml"), "commit": commit,
            "poll_ms": detail.pop("poll_ms", None)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--no-build", action="store_true")
    ap.add_argument("--worker", help="prebuilt worker executable")
    ap.add_argument("--daemon", help="prebuilt resynthd executable")
    args = ap.parse_args()
    worker = os.path.abspath(args.worker or os.path.join(BUILD_DIR, "default", WORKER))
    daemon_bin = os.path.abspath(args.daemon or os.path.join(BUILD_DIR, "default", DAEMON))

    sources = [] if args.no_build else ["dune-project", "lib", "bin/resynthd.ml"]
    for path in ["BENCHMARK.json", EXPECTED] + sources:
        if not os.path.exists(path):
            fail("%s not found: run from the root of a full checkout" % path, 2)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]

    if not args.no_build:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, WORKER, DAEMON],
            stdout=sys.stderr, stderr=sys.stderr)
        if build.returncode != 0:
            fail("build failed")

    names = WORKLOADS if args.workload == "all" else [args.workload]
    attempted = failed = 0
    final = {}
    for name in names:
        result = run_workload(args, name, worker, daemon_bin)
        record = {"provenance": provenance(args, name, result),
                  "failures": result["failures"], "detail": result["detail"]}
        attempted += result["attempted"]
        failed += result["failed"]
        for m in wanted:
            got = result["metrics"].get(m["name"])
            if got is None:
                fail("%s: metric %s was not measured" % (name, m["name"]))
            if got["unit"] != m["unit"]:
                fail("%s: metric %s in %s, declared %s"
                     % (name, m["name"], got["unit"], m["unit"]))
            key = m["name"] if len(names) == 1 else name + "/" + m["name"]
            final[key] = got
            print("%-14s %-32s = %.6g %s" % (name, m["name"], got["value"], got["unit"]))
        print("%-14s %-32s = %.6g (%d of %d)"
              % (name, "failed_frac", result["failed"] / max(1, result["attempted"]),
                 result["failed"], result["attempted"]))
        for msg in result["failures"]:
            log("%s: FAILED %s" % (name, msg))
        print("record: " + json.dumps(record, sort_keys=True))
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    # a failed check fails the command, so the dune smoke rule gates on it
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
