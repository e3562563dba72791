#!/usr/bin/env python3
"""The repository's benchmark: paper reproduction, an obs-on BSP run and
open-loop admission serving.

Run from the root of a checkout:

    python3 perfbench/run.py --workload repro|bsp-obs|serve-mixed \
        --seed N --seconds S --trace 0|1

It builds perfbench/hrtbench.exe with dune into .bench_build, starts
worker processes, checks every output, and prints as its last stdout line
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json for the
named workload; with --trace 1 they are every per-layer metric, from a
traced run of all three workloads. The line before it records the run's
environment (seed, nproc, OCaml version, daemon jobs, source revision).

    python3 perfbench/run.py --selftest        the benchmark's own checks
    python3 perfbench/run.py --make-reference  rewrite perfbench/reference.json

Exit status: 0 when every output check passed; 1 when a check failed (the
result line is still printed, with "correct": false); 2 when the benchmark
could not run (no result line).
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
RUN_DIR = ".bench_run"
EXE = os.path.join(BUILD_DIR, "default", BENCH_DIR, "hrtbench.exe")
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
WORKLOADS = ("repro", "bsp-obs", "serve-mixed")
# Set-up samples per run; set-up_s is their median.
SETUPS = {"repro": 9, "bsp-obs": 9, "serve-mixed": 5}
# --seconds for the traced run's serving phases (r2k, r6k, then the ladder).
TRACE_SERVE_SECONDS = 6.0

_children = []


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Problems(list):
    """Failed output checks, each logged as soon as it is found."""

    def append(self, msg):
        log("CHECK FAILED: " + msg)
        super().append(msg)


def spawn(args, stdout=subprocess.PIPE, stderr=None):
    proc = subprocess.Popen([EXE] + args, stdout=stdout, stderr=stderr, text=True)
    _children.append(proc)
    return proc


def stop_all():
    for proc in _children:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in _children:
        try:
            proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    _children.clear()


def read_line(proc, want=None):
    """Next JSON line from a worker (the next of kind [want] if given)."""
    while True:
        line = proc.stdout.readline()
        if not line:
            proc.wait()
            raise BenchError(f"worker {proc.args[1]} exited ({proc.returncode}) before '{want}'")
        msg = json.loads(line)
        if want is None or msg["kind"] == want:
            return msg


def read_all(proc):
    msgs = [json.loads(line) for line in proc.stdout]
    if proc.wait() != 0:
        raise BenchError(f"worker {proc.args[1]} failed with status {proc.returncode}")
    return msgs


def check_layout():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError("run from the root of a checkout of the repository (dune-project and lib/ missing)")


def build():
    # Keep every file the build writes inside the checkout.
    tmp = os.path.abspath(os.path.join(RUN_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp,
               XDG_CACHE_HOME=os.path.abspath(os.path.join(BUILD_DIR, "cache")))
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR, f"./{BENCH_DIR}/hrtbench.exe"]
    res = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed")


def source_revision():
    """The commit when run inside git, else an MD5 over the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.md5()
    for top in ("lib", "bin", BENCH_DIR):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-md5:" + digest.hexdigest()


def load_reference(path):
    with open(path) as f:
        return json.load(f)


class Setups:
    """Set-up samples, each with the host-speed scale the worker measured
    just after it (its "calib" line). setup_s is the median of the scaled
    samples: set-up is host work that drifts with the host's speed like
    the simulation does (README: Host-speed scaling)."""

    def __init__(self):
        self.raw, self.scaled = [], []

    def add(self, secs, proc):
        scale = read_line(proc, "calib")["scale"]
        self.raw.append(secs)
        self.scaled.append(secs * scale)

    def median(self, env):
        env["raw_setup_s"] = statistics.median(self.raw)
        return statistics.median(self.scaled)


def timed_ready(args, setups):
    """Start a worker; the seconds to its ready line are a set-up sample."""
    t0 = time.monotonic()
    proc = spawn(args)
    msg = read_line(proc, "ready")
    setups.add(time.monotonic() - t0, proc)
    return proc, msg


# ---- simulator workloads ----

def sim_setup(n, setups):
    """Start-up of the simulator binary, [n] samples."""
    for _ in range(n):
        proc, _ = timed_ready(["ready"], setups)
        read_all(proc)


def bsp_expected(ref, seed):
    return ref.get("bsp", {}).get(str(seed))


def run_sim(workload, seed, seconds, ref, env):
    setups = Setups()
    sim_setup(SETUPS[workload] - 1, setups)
    args = ["repro"] if workload == "repro" else ["bsp", "--seed", str(seed)]
    proc, ready = timed_ready(args + ["--seconds", str(seconds)], setups)
    env["ocaml"] = ready["ocaml"]
    units = [m for m in read_all(proc) if m["kind"] == "unit"]
    if not units:
        raise BenchError(f"{workload} worker produced no units")
    problems = Problems()
    if workload == "repro":
        bad = [u for u in units if u["digest"] != ref["repro_md5"]]
        if bad:
            problems.append(f"repro tables digest {bad[0]['digest']} != reference {ref['repro_md5']}")
        failed = len(bad)
    else:
        first = units[0]["result"]
        expected = bsp_expected(ref, seed)
        failed = 0
        for u in units:
            r = u["result"]
            ok = r == first and r["iterations_done"] == u["iterations_expected"] and r["admitted"]
            if expected is not None and r != expected:
                ok = False
            if not ok:
                failed += 1
        if failed:
            problems.append(f"bsp-obs result {units[0]['result']} does not match the reference {expected}")
    if workload == "repro":
        # A pass's time from each entry's median over the passes, so a
        # transient slowdown in one pass moves only the entries it hit.
        wall = sum(statistics.median([u["entries"][name] for u in units]) for name in units[0]["entries"])
    else:
        wall = statistics.median([u["scaled_s"] for u in units])
    metrics = {
        "setup_s": setups.median(env),
        "wall_s": wall,
        # The first unit's peak: later units may only add heap growth.
        "peak_rss_mb": units[0]["vm_hwm_kb"] / 1024.0,
    }
    env["units"] = len(units)
    env["raw_wall_s"] = statistics.median([u["wall_s"] for u in units])
    if workload == "bsp-obs":
        env["sim_events_per_s"] = statistics.median([u["events"] / u["wall_s"] for u in units])
    return metrics, len(units), failed, problems


# ---- serving workload ----

def socket_path(tag):
    os.makedirs(RUN_DIR, exist_ok=True)
    path = os.path.join(RUN_DIR, f"d{os.getpid()}-{tag}.sock")
    if os.path.exists(path):
        os.remove(path)
    return path


def stop(proc):
    proc.send_signal(signal.SIGTERM)
    proc.wait(timeout=30)


def serve_session(seed, seconds, mode, tag, setups, flip=False):
    """Boot a daemon, warm it and (unless mode is "warm") run the phases.
    The boot and warm-up are a sample for [setups]. Returns (generator
    messages, the daemon's VmHWM in kB once warmed, the daemon's ready
    line)."""
    sock = socket_path(tag)
    os.makedirs(RUN_DIR, exist_ok=True)
    with open(os.path.join(RUN_DIR, "daemon.log"), "a") as daemon_log:
        t0 = time.monotonic()
        daemon = spawn(["daemon", "--socket", sock], stderr=daemon_log)
        ready = read_line(daemon, "ready")
        gen_args = ["load", "--socket", sock, "--seed", str(seed), "--seconds", str(seconds),
                    "--mode", mode, "--daemon-pid", str(daemon.pid),
                    "--clk-tck", str(os.sysconf("SC_CLK_TCK"))]
        gen = spawn(gen_args + (["--flip"] if flip else []))
        warm = read_line(gen, "warm_done")
        setups.add(time.monotonic() - t0, gen)
        msgs = read_all(gen)
        stop(daemon)
    return msgs, warm["daemon_hwm_kb"], ready


def run_serve(seed, seconds, env, flip=False):
    setups = Setups()
    for i in range(SETUPS["serve-mixed"] - 1):
        serve_session(seed, seconds, "warm", f"s{i}", setups)
    msgs, hwm, ready = serve_session(seed, seconds, "full", "run", setups, flip)
    env["ocaml"], env["daemon_jobs"], env["daemon_max_queue"] = ready["ocaml"], ready["jobs"], ready["max_queue"]
    phases = [m["phase"] for m in msgs if m["kind"] == "phase"]
    timed = next(m for m in msgs if m["kind"] == "timed")
    verified = next(m for m in msgs if m["kind"] == "verified")
    env["phases"] = [{k: p[k] for k in ("name", "valid", "lat_p50_us", "lat_window_p50_us", "lat_p99_us",
                                         "late_p50_us", "late_p99_us", "failed", "daemon_cpu_s", "steal_share")}
                     for p in phases]
    problems = Problems()
    if verified["wrong"] or not verified["checked"]:
        problems.append(f"serve-mixed: {verified['wrong']} of {verified['checked']} replies differ from the oracle")
    if not timed["r6k_valid"]:
        raise BenchError("serve-mixed: no valid r6k phase in eight tries (generator behind or backlog grown)")
    env["r6k_steal_share"] = timed["r6k_steal_share"]
    metrics = {
        "setup_s": setups.median(env),
        "wall_s": timed["r6k_p50_us"] / 1e6,
        "peak_rss_mb": hwm / 1024.0,
    }
    return metrics, timed["attempted"], timed["failed"], problems


# ---- traced run ----

def run_trace(workload, seed, ref, env):
    os.makedirs(RUN_DIR, exist_ok=True)
    trace_out = os.path.join(RUN_DIR, f"trace-{workload}-{seed}.json")
    proc = spawn(["trace", "--seed", str(seed), "--trace-out", trace_out])
    layers = read_line(proc, "layers")
    read_all(proc)
    env["trace_file"], env["spans"] = trace_out, layers["spans"]
    m = dict(layers["metrics"])
    checks = layers["checks"]
    problems = Problems()
    if checks["repro_digest"] != ref["repro_md5"] or checks["repro_digest_untraced"] != ref["repro_md5"]:
        problems.append("repro tables digest differs from the reference")
    if not checks["bsp_obs_identical"]:
        problems.append("bsp-obs results differ between obs-on and obs-off runs")
    expected = bsp_expected(ref, seed)
    if expected is not None and checks["bsp_result"] != expected:
        problems.append("bsp-obs result differs from the reference")
    if checks["replay_wrong"]:
        problems.append(f"in-process replay: {checks['replay_wrong']} wrong replies")

    msgs, _, ready = serve_session(seed, TRACE_SERVE_SECONDS, "trace", "trace", Setups())
    env["daemon_jobs"], env["daemon_max_queue"] = ready["jobs"], ready["max_queue"]
    phases = {}
    for x in msgs:
        if x["kind"] == "phase":
            p = dict(x["phase"], daemon_hwm_kb=x["daemon_hwm_kb"])
            # Of repeated r6k phases, keep the first valid one.
            if not phases.get(p["name"], {}).get("valid"):
                phases[p["name"]] = p
    timed = next(x for x in msgs if x["kind"] == "timed")
    verified = next(x for x in msgs if x["kind"] == "verified")
    if verified["wrong"]:
        problems.append(f"serve-mixed: {verified['wrong']} replies differ from the oracle")
    last = [x["phase"] for x in msgs if x["kind"] == "phase"][-1]
    for name in ("r2k", "r6k"):
        p = phases[name]
        m[f"serve.lat_p50_us.{name}"] = p["lat_p50_us"]
        m[f"serve.lat_p99_us.{name}"] = p["lat_p99_us"]
        m[f"serve.lat_count.{name}"] = p["lat_count"]
        m[f"serve.server_p50_us.{name}"] = p["server_p50_us"]
        m[f"serve.server_p99_us.{name}"] = p["server_p99_us"]
        m[f"serve.valid.{name}"] = 1.0 if p["valid"] else 0.0
    m["serve.daemon_rss_mb.r6k"] = phases["r6k"]["daemon_hwm_kb"] / 1024.0
    m["serve.daemon_cpu_us_per_req.r6k"] = phases["r6k"]["daemon_cpu_s"] * 1e6 / phases["r6k"]["attempted"]
    m["serve.transport_p50_us"] = phases["r2k"]["lat_p50_us"] - phases["r2k"]["server_p50_us"]
    m["serve.max_qps"] = verified["max_qps"]
    m["serve.fail_share"] = timed["failed"] / max(1, timed["attempted"])
    m["serve.shed"] = last["server_shed"]
    m["serve.expired"] = last["server_expired"]
    hits, misses = last["server_hits"], last["server_misses"]
    m["analysis.service.hit_ratio"] = hits / max(1, hits + misses)
    m["analysis.service.evictions"] = last["server_evictions"]
    m["gen.late_p50_us"] = timed["late_p50_us"]
    m["gen.late_p99_us"] = timed["late_p99_us"]
    return m, verified["checked"], timed["failed"], problems


# ---- output ----

def declared(section):
    with open("BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def result_line(metrics, section, correct, attempted, failed):
    units = declared(section)
    missing = sorted(set(units) - set(metrics))
    extra = sorted(set(metrics) - set(units))
    if missing or extra:
        raise BenchError(f"metrics do not match BENCHMARK.json {section}: missing {missing}, undeclared {extra}")
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }


def run(args):
    check_layout()
    build()
    ref = load_reference(args.reference)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "nproc": os.cpu_count(), "revision": source_revision()}
    if args.trace:
        metrics, attempted, failed, problems = run_trace(args.workload, args.seed, ref, env)
        section = "per_layer"
    elif args.workload == "serve-mixed":
        metrics, attempted, failed, problems = run_serve(args.seed, args.seconds, env, args.flip_verdict)
        section = "end_to_end"
    else:
        metrics, attempted, failed, problems = run_sim(args.workload, args.seed, args.seconds, ref, env)
        section = "end_to_end"
    result = result_line(metrics, section, not problems, attempted, failed)
    print(json.dumps({"env": env}))
    print(json.dumps(result), flush=True)
    return 1 if problems else 0


# ---- maintenance: reference values ----

def make_reference(seeds):
    """Record the repro digest and the bsp-obs result of [seeds]."""
    check_layout()
    build()
    proc = spawn(["repro", "--seconds", "0"])
    digest = next(m for m in read_all(proc) if m["kind"] == "unit")["digest"]
    bsp = {}
    for seed in seeds:
        proc = spawn(["bsp", "--seed", str(seed), "--seconds", "0"])
        bsp[str(seed)] = next(m for m in read_all(proc) if m["kind"] == "unit")["result"]
    with open(REFERENCE, "w") as f:
        json.dump({"repro_md5": digest, "bsp": bsp}, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}")
    return 0


# ---- self-tests ----

def selftest():
    """Every declared metric appears with its unit; a corrupted reference
    digest and a flipped verdict each make the checker fail."""
    me = [sys.executable, os.path.join(BENCH_DIR, "run.py")]

    def last_json(cmd):
        out = subprocess.run(me + cmd, capture_output=True, text=True)
        lines = out.stdout.strip().splitlines()
        return out.returncode, (json.loads(lines[-1]) if lines else None), out.stderr

    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            if trace and workload != "repro":
                continue  # one traced run covers every per-layer metric
            code, res, err = last_json(["--workload", workload, "--seed", "3", "--seconds", "1",
                                        "--trace", str(trace)])
            units = declared("per_layer" if trace else "end_to_end")
            if code != 0 or res is None or not res["correct"]:
                failures.append(f"{workload} trace={trace}: exit {code}\n{err[-2000:]}")
                continue
            for name, unit in units.items():
                got = res["metrics"].get(name)
                if got is None or got["unit"] != unit:
                    failures.append(f"{workload} trace={trace}: metric {name} missing or not in {unit}")
            log(f"selftest: {workload} trace={trace} reports {len(res['metrics'])} metrics")

    os.makedirs(RUN_DIR, exist_ok=True)
    corrupt = os.path.join(RUN_DIR, "reference-corrupt.json")
    ref = load_reference(REFERENCE)
    ref["repro_md5"] = ("0" if ref["repro_md5"][0] != "0" else "1") + ref["repro_md5"][1:]
    with open(corrupt, "w") as f:
        json.dump(ref, f)
    # A failed check must show as a non-zero exit and a CHECK FAILED line
    # (serve-mixed may also stop early on a contended host: the check
    # still runs first).
    code, _, err = last_json(["--workload", "repro", "--seed", "3", "--seconds", "1",
                              "--trace", "0", "--reference", corrupt])
    if code == 0 or "CHECK FAILED: repro tables digest" not in err:
        failures.append("a corrupted repro digest did not make the check fail")
    else:
        log("selftest: corrupted digest detected")
    code, _, err = last_json(["--workload", "serve-mixed", "--seed", "3", "--seconds", "1",
                              "--trace", "0", "--flip-verdict"])
    if code == 0 or "replies differ from the oracle" not in err:
        failures.append("a flipped verdict did not make the check fail")
    else:
        log("selftest: flipped verdict detected")
    for f in failures:
        log("SELFTEST FAILED: " + f)
    log("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    # Stop the workers on SIGTERM too: the finally below runs on SystemExit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", default=REFERENCE, help=argparse.SUPPRESS)
    ap.add_argument("--flip-verdict", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.make_reference:
            return make_reference(list(range(0, 32)) + [42])
        if args.workload is None:
            ap.error("--workload is required")
        return run(args)
    except (BenchError, OSError, ValueError, KeyError, StopIteration, subprocess.SubprocessError) as e:
        log(f"benchmark error: {e!r}")
        return 2
    finally:
        stop_all()


if __name__ == "__main__":
    sys.exit(main())
