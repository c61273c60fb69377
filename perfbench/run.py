#!/usr/bin/env python3
"""The dca benchmark: end-to-end timings of what users run, checked outputs,
and a traced run that gives one number per layer.

    python3 perfbench/run.py --workload sampling-paper --seed 1 --seconds 25 --trace 0

Run from the root of a source tree. The script builds the `dca` binary and
the per-layer tracer (perfbench/tracer) with cargo into $CARGO_TARGET_DIR
(default .bench_build), works in .bench_run/<workload>, and prints one
human-readable line per metric followed, as the last line, by a JSON object
with the keys correct, attempted, failed and metrics. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. perfbench/README.md
defines every metric and the layer each per-layer metric should move.
"""

import argparse
import hashlib
import http.client
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from stats import median, summary  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = json.load(open(os.path.join(HERE, "expected.json")))

# serve-mix keys: every figure the daemon serves, at smoke scale and two
# instruction budgets. The daemon pools one Lab per options key, so the
# figures of one budget share a Lab, as real clients' same-options
# requests do: a figure whose runs another figure already computed comes
# back warm on first sight. serve_requests draws the request mix; its
# shape is an assumption (perfbench/README.md says on what it rests).
SERVE_FIGURES = [
    "fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16",
    "ablate_buses", "ablate_imbalance", "ablate_threshold", "ablate_copy_latency",
    "ablate_issue_width", "ablate_window", "ablate_rf_ports", "sampling"]
SERVE_BUDGETS = ["5000", "10000"]
SERVE_REPEATS = 1      # repeat requests per key and round, on average
SERVE_RACE_EVERY = 4   # one key in four is first requested twice at once
SERVE_CLIENTS = 2
ZIPF_S = 0.8

# Each run does a fixed amount of work, sized from --seconds by the cost of
# one operation on a 2-core Xeon VM, so that order statistics (tails) are
# taken over the same number of samples in every run.
PAPER_COLD_S = 14        # one cold `figures sampling --scale paper`
PAPER_WARM_S = 0.028     # one warm one
ROUND_S = 4.0            # one serve-mix round
WARMUP_RUNS = 20         # untimed warm runs before the timed ones
PROBE_EVERY = 10         # warm runs per set-up probe
IDLE_DAEMONS = 3         # set-up probes (idle daemons) before each serve round


class Failures:
    """Counts attempted and failed operations; a failed check is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)
            log(f"FAILED: {what}")
        return ok


def tail_note(s):
    """Which percentile a summary's tail is, and over how many samples."""
    return f"p{s['tail_pct']:.1f} of {s['n']} samples ({s['beyond']} beyond)"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def slurp(path):
    """A file's bytes, or None when the program did not write it."""
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def flush(path):
    """Writes every file under path through to the disk."""
    for d, _, fs in os.walk(path):
        for f in fs:
            fd = os.open(os.path.join(d, f), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------- build


def build(root):
    """Builds dca and the tracer; returns their paths."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli"))):
        raise SystemExit("error: run from the root of a dca source tree "
                         "(Cargo.toml and crates/ not found)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (["cargo", "build", "--release", "--offline", "-p", "dca-cli", "--bin", "dca"],
                ["cargo", "build", "--release", "--offline",
                 "--manifest-path", os.path.join(HERE, "tracer", "Cargo.toml")]):
        r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise SystemExit(f"error: build failed: {' '.join(cmd)}")
    rel = os.path.join(target, "release")
    return os.path.join(rel, "dca"), os.path.join(rel, "dca-perfbench-tracer")


def stamp(root, seed):
    """CPU model, cores, rustc, source identity and seed."""
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                            text=True).stdout.strip() or "unknown (not a git checkout)"
    # The benchmark also runs from exported trees; hash the sources too.
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        base = os.path.join(root, top)
        paths = [base] if os.path.isfile(base) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(base) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, root).encode())
            h.update(open(p, "rb").read())
    return {"cpu": cpu, "nproc": os.cpu_count(), "rustc": rustc, "commit": commit,
            "source_sha256": h.hexdigest()[:16], "seed": seed}


# ------------------------------------------------------- offline workloads


def run_dca(dca, args, cwd):
    """Runs dca once; returns (ok, wall s, cpu s, peak rss MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([dca] + args, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = p.stderr.read()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    if p.returncode != 0:
        log(f"dca {' '.join(args)} exited {p.returncode}: {err.decode(errors='replace')[-2000:]}")
    return p.returncode == 0, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def manifest_counters(cwd):
    with open(os.path.join(cwd, "results", "run_manifest.json")) as f:
        return json.load(f)["counters"]


def setup_probe(dca, work, i, fails):
    """The offline set-up: a fresh working directory, then `dca list`."""
    t0 = time.perf_counter()
    d = fresh(os.path.join(work, f"setup{i}"))
    ok, _, _, _ = run_dca(dca, ["list"], d)
    fails.op(ok, "dca list")
    return time.perf_counter() - t0


def sampling_paper(dca, work, seconds, fails):
    exp = EXPECTED["sampling-paper"]
    m = {}

    def cold_run(i):
        d = fresh(os.path.join(work, f"cold{i}"))
        ok, wall, cpu, rss = run_dca(dca, ["figures", "sampling", "--scale", "paper",
                                            "--store-dir", "store", "-q"], d)
        fails.op(ok, f"cold sampling run {i}")
        c = manifest_counters(d) if ok else {}
        fails.op(c.get("ff_insts_total") == exp["ff_insts"]
                 and c.get("intervals_computed_total") == exp["intervals_computed"],
                 f"cold run {i} work counts {c.get('ff_insts_total')}/{c.get('intervals_computed_total')}")
        return wall, cpu, rss, d

    # The host's speed drifts over tens of seconds, so one cold run opens
    # the run and the others close it, after the warm runs.
    ncold = max(1, int(0.75 * seconds / PAPER_COLD_S))
    cold = [cold_run(0)]
    reference = slurp(os.path.join(cold[0][3], "results", "sampling.md"))
    fails.op(reference is not None and hashlib.sha256(reference).hexdigest() == exp["sampling.md"],
             "cold sampling.md matches its recorded digest")
    warm_dir = cold[0][3]
    # The cold run leaves its store in dirty pages; flushing them and a few
    # untimed warm runs keep their write-back and first reads out of the
    # warm timings.
    flush(warm_dir)

    def warm_run():
        ok, wall, _, _ = run_dca(dca, ["figures", "sampling", "--scale", "paper",
                                        "--store-dir", "store", "-q"], warm_dir)
        c = manifest_counters(warm_dir) if ok else {}
        ok = ok and c.get("ff_insts_total") == 0 and c.get("intervals_computed_total") == 0
        ok = ok and slurp(os.path.join(warm_dir, "results", "sampling.md")) == reference
        fails.op(ok, "warm run recomputes nothing and reproduces the cold report")
        return wall * 1e3

    for _ in range(WARMUP_RUNS):
        warm_run()
    # Set-up probes are spread over the warm phase, one per PROBE_EVERY
    # warm runs, so that their median sees the host as the runs do.
    warm, setup = [], []
    for i in range(max(50, round((seconds - ncold * PAPER_COLD_S) / PAPER_WARM_S))):
        if i % PROBE_EVERY == 0:
            setup.append(setup_probe(dca, work, len(setup), fails))
        warm.append(warm_run())
    cold += [cold_run(i) for i in range(1, ncold)]
    for c in cold[1:]:
        fails.op(slurp(os.path.join(c[3], "results", "sampling.md")) == reference,
                 "cold reports are byte-identical")
    m["setup_s"] = median(setup)
    m["wall_s"] = median([c[0] for c in cold])
    m["cpu_s"] = median([c[1] for c in cold])
    m["peak_rss_mb"] = median([c[2] for c in cold])
    # The warm runs are serial, so their rate is that of the median run.
    return m, {"cold": [c[0] * 1e3 for c in cold], "warm": warm}, 1e3 / median(warm)


# ------------------------------------------------------------- serve-mix


def serve_keys():
    """The key universe: (figure, args) pairs."""
    return [(fig, ["--scale", "smoke", "--max-insts", b])
            for fig in SERVE_FIGURES for b in SERVE_BUDGETS]


def serve_requests(seed, rnd, nkeys):
    """One round's request sequence, which both closed-loop clients
    consume in order, each taking the next request when it is free.

    Every key is requested once plus a fixed number of repeats, so each
    round computes and repeats the same work: SERVE_REPEATS per key on
    average, each key's count set by Zipf-like popularity (exponent
    ZIPF_S) over the keys in serve_keys order. The requests come in a
    seeded order, new and repeated keys mixed. The first request for
    every SERVE_RACE_EVERY-th key is sent twice in a row, so the free
    client asks for the key while the other computes it (dedup)."""
    rng = random.Random(f"{seed}/{rnd}")
    weight = [1.0 / (r + 1) ** ZIPF_S for r in range(nkeys)]
    seq = [k for k in range(nkeys)
           for _ in range(1 + round(SERVE_REPEATS * nkeys * weight[k] / sum(weight)))]
    rng.shuffle(seq)
    racing = set(rng.sample(range(nkeys), nkeys // SERVE_RACE_EVERY))
    out = []
    for k in seq:
        if k in racing and k not in out:
            out.append(k)
        out.append(k)
    return out


def http_json(conn, method, path, body=None):
    conn.request(method, path, body=body,
                 headers={"Content-Type": "application/json"} if body is not None else {})
    r = conn.getresponse()
    return r.status, r.read()


def connect(port):
    return http.client.HTTPConnection("127.0.0.1", port, timeout=120)


def start_daemon(dca, d, fails):
    """Starts `dca serve` over HTTP with a fresh store; returns (proc, port, secs to ready)."""
    t0 = time.perf_counter()
    errlog = open(os.path.join(d, "serve.log"), "wb")
    proc = subprocess.Popen([dca, "serve", "--listen", "./frame.sock", "--http-addr", "127.0.0.1:0",
                             "--jobs", "2", "--store-dir", "store"],
                            cwd=d, stdout=subprocess.DEVNULL, stderr=errlog)
    errlog.close()
    port = None
    while time.perf_counter() - t0 < 30 and running(proc):
        if port is None:
            for line in open(os.path.join(d, "serve.log"), errors="replace"):
                if line.startswith("serve: http on "):
                    port = int(line.rsplit(":", 1)[1])
        if port is not None:
            try:
                c = connect(port)
                status, _ = http_json(c, "GET", "/v1/ping")
                c.close()
                if status == 200:
                    return proc, port, time.perf_counter() - t0
            except OSError:
                pass
        time.sleep(0.0005)
    stop_daemon(proc, None)
    fails.op(False, "dca serve did not become ready")
    raise SystemExit("error: dca serve did not become ready")


def running(proc):
    """True while the child runs; unlike Popen.poll it does not reap it."""
    return os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def stop_daemon(proc, port):
    """Asks the daemon to shut down (kills it if it will not); returns
    (clean exit, cpu s, peak rss MB)."""
    if port is not None and running(proc):
        try:
            c = connect(port)
            http_json(c, "POST", "/v1/shutdown", b"")
            c.close()
        except OSError:
            pass
    deadline = time.time() + (30 if port is not None else 0)
    while running(proc) and time.time() < deadline:
        time.sleep(0.002)
    if running(proc):
        proc.kill()
    _, status, ru = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode == 0, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def serve_round(dca, work, seed, rnd, keys, fails):
    """One daemon lifetime: fresh store, two closed-loop clients, shutdown."""
    d = fresh(os.path.join(work, f"round{rnd}"))
    proc, port, ready = start_daemon(dca, d, fails)
    queue = serve_requests(seed, rnd, len(keys))
    delivered, lock, records = set(), threading.Lock(), []
    pending = iter(queue)

    def client():
        while True:
            with lock:
                k = next(pending, None)
                if k is None:
                    return
                seen = k in delivered
            fig, args = keys[k]
            body = json.dumps({"figure": fig, "args": args}).encode()
            # The `dca client --http` flow: submit and fetch the result on
            # one connection, follow the progress stream on a second.
            t0 = time.perf_counter()
            conn = connect(port)
            st1, sub = http_json(conn, "POST", "/v1/figures", body)
            sub = json.loads(sub)
            sc = connect(port)
            st2, stream = http_json(sc, "GET", f"/v1/jobs/{sub['job']}?stream=1")
            sc.close()
            st3, doc = http_json(conn, "GET", f"/v1/jobs/{sub['job']}/result")
            conn.close()
            latency = time.perf_counter() - t0
            final = json.loads(stream.strip().splitlines()[-1])
            with lock:
                delivered.add(k)
                records.append({
                    "key": k, "seen": seen, "status": (st1, st2, st3), "doc": doc,
                    "warm": final.get("warm"), "dedup": sub.get("dedup"),
                    "work": sum(final.get(c, 0) for c in ("ff_insts", "intervals_computed",
                                                         "straight_runs")),
                    "elapsed_ms": final.get("elapsed_ms", 0), "ms": latency * 1e3})

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client) for _ in range(SERVE_CLIENTS)]
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        makespan = time.perf_counter() - t0
        clean, cpu, rss = stop_daemon(proc, port)
    fails.op(clean, f"dca serve round {rnd} shut down cleanly")
    fails.op(len(records) == len(queue), f"round {rnd}: every request completed")
    for r in records:
        ok = all(200 <= s < 300 for s in r["status"])
        # The warm flag claims the job simulated nothing: it must agree
        # with the job's own work counts, and a key whose result was
        # delivered before must be served warm.
        ok = ok and r["warm"] == (r["work"] == 0)
        if r["seen"]:
            ok = ok and r["warm"] is True
        fails.op(ok, f"round {rnd} key {keys[r['key']]}: status {r['status']} warm {r['warm']} "
                     f"work {r['work']} dedup {r['dedup']} delivered before {r['seen']}")
    return {"ready": ready, "makespan": makespan, "cpu": cpu, "rss": rss, "records": records}


def check_serve_docs(tracer, work, keys, rounds, fails):
    """Every served report equals the in-process figures::by_name + document()."""
    seen = sorted({r["key"] for rd in rounds for r in rd["records"]})
    docs = reference_docs(tracer, work, [keys[k] for k in seen])
    by_key = dict(zip(seen, docs))
    for rd in rounds:
        for r in rd["records"]:
            fails.op(r["doc"] == by_key[r["key"]].encode(),
                     f"served {keys[r['key']]} is byte-identical to the in-process report")


def serve_rounds(dca, tracer, work, seed, nrounds, fails):
    keys = serve_keys()
    rounds = [serve_round(dca, work, seed, r, keys, fails) for r in range(nrounds)]
    check_serve_docs(tracer, work, keys, rounds, fails)
    return rounds


def idle_daemon(dca, work, i, fails):
    """The served set-up: spawn `dca serve` until it answers /v1/ping."""
    proc, port, secs = start_daemon(dca, fresh(os.path.join(work, f"setup{i}")), fails)
    fails.op(stop_daemon(proc, port)[0], "idle dca serve shut down cleanly")
    return secs


def serve_mix(dca, tracer, work, seed, seconds, fails):
    # Set-up probes go before every round, so that their median sees the
    # host as the rounds do.
    keys, ready, rounds = serve_keys(), [], []
    for r in range(max(1, round(seconds / ROUND_S))):
        ready += [idle_daemon(dca, work, len(ready) + i, fails) for i in range(IDLE_DAEMONS)]
        rounds.append(serve_round(dca, work, seed, r, keys, fails))
    check_serve_docs(tracer, work, keys, rounds, fails)
    recs = [r for rd in rounds for r in rd["records"]]
    m = {"setup_s": median(ready + [rd["ready"] for rd in rounds]),
         "wall_s": median([rd["makespan"] for rd in rounds]),
         "cpu_s": median([rd["cpu"] for rd in rounds]),
         "peak_rss_mb": median([rd["rss"] for rd in rounds])}
    # Cold requests are the ones the daemon computed (or attached to a
    # computation); warm ones it served without simulating.
    lat = {"warm": [r["ms"] for r in recs if r["warm"]], "cold": [r["ms"] for r in recs if not r["warm"]]}
    return m, lat, len(recs) / sum(rd["makespan"] for rd in rounds)


# ------------------------------------------------------------ traced run


def spec_for(workload):
    """The tracer's inputs: the workload's own figure work and its scale."""
    if workload == "sampling-paper":
        return {"scale": "paper", "bench": "compress", "window": 20000000, "period": 2000000,
                "interval": 100000, "sim_budget": 300000,
                "requests": [["sampling", "--scale", "paper"]]}
    return {"scale": "smoke", "bench": "compress", "window": 40000, "period": 4000,
            "interval": 1000, "sim_budget": 40000,
            "requests": [[fig] + args for fig, args in serve_keys()]}


def run_tracer(tracer, mode, spec, work):
    spec = dict(spec, workdir=os.path.abspath(work))
    sp, out = os.path.join(work, f"{mode}-spec.json"), os.path.join(work, f"{mode}-out.json")
    with open(sp, "w") as f:
        json.dump(spec, f)
    r = subprocess.run([tracer, mode, sp, out], stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        raise SystemExit(f"error: tracer {mode} failed")
    with open(out) as f:
        return json.load(f)


def reference_docs(tracer, work, requests):
    spec = {"scale": "smoke", "bench": "compress", "window": 1, "period": 1, "interval": 1,
            "sim_budget": 1, "requests": [[fig] + args for fig, args in requests]}
    return run_tracer(tracer, "reference", spec, work)["docs"]


def traced(workload, dca, tracer, work, seed, fails, names):
    out = run_tracer(tracer, "layers", spec_for(workload), work)
    v = dict(out["values"])
    check = {k: v.pop(k) for k in list(v) if k.startswith("check.")}
    exp = EXPECTED.get(workload, {})
    if workload == "sampling-paper":
        fails.op(v["lab.ff_insts"] == exp["ff_insts"] and v["lab.intervals_computed"] == exp["intervals_computed"],
                 f"traced cold run work counts {v['lab.ff_insts']}/{v['lab.intervals_computed']}")
    if workload == "serve-mix":
        fails.op(v["lab.straight_runs"] == exp["straight_runs"],
                 f"traced serve keys straight runs {v['lab.straight_runs']}")
    fails.op(check["check.memo_recomputed"] == 0,
             f"traced re-render from memoised labs recomputed {check['check.memo_recomputed']}")
    fails.op(check["check.warm_ff_insts"] == 0 and check["check.warm_intervals_computed"] == 0
             and v["lab.intervals_from_store"]
             == v["lab.intervals_computed"] + check["check.cold_intervals_from_store"],
             "traced warm pass over the store recomputes nothing and reads back every interval")
    # Every repeated timing is summarised by the one rule: a metric named
    # after the samples takes their median, else <name>.p50 and .tail.
    for name, xs in out["samples"].items():
        s = summary(xs)
        if name in names:
            v[name] = s["p50"]
        else:
            v[f"{name}.p50"], v[f"{name}.tail"] = s["p50"], s["tail"]
        log(f"  {name}: p50 {s['p50']:.6g}, tail {s['tail']:.6g}: {tail_note(s)}")
    # The serve layer as a client sees it: one round of the serve mix.
    rd = serve_rounds(dca, tracer, os.path.join(work, "serve"), seed, 1, fails)[0]
    recs = rd["records"]
    jobs = [r["elapsed_ms"] for r in recs if not r["warm"] and not r["dedup"]]
    over = summary([r["ms"] - r["elapsed_ms"] for r in recs])
    log(f"  serve.overhead_ms.tail: {tail_note(over)}")
    v["serve.job_run_ms.p50"] = summary(jobs)["p50"]
    v["serve.overhead_ms.p50"], v["serve.overhead_ms.tail"] = over["p50"], over["tail"]
    v["serve.dedup_hits"] = sum(1 for r in recs if r["dedup"])
    v["serve.cold_share"] = sum(1 for r in recs if not r["warm"]) / len(recs)
    return v


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["sampling-paper", "serve-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    root = os.getcwd()
    dca, tracer = build(root)
    # Names and units come from BENCHMARK.json; layers.json adds, for each
    # per-layer metric, the end-to-end metric it should move.
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        moves = json.load(f)
    st = stamp(root, a.seed)
    log("stamp " + json.dumps(st))
    work = fresh(os.path.join(root, ".bench_run", a.workload))
    fails = Failures()

    samples = {}
    if a.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values = traced(a.workload, dca, tracer, work, a.seed, fails, units)
        missing = sorted(set(units) - set(values))
        fails.op(not missing, f"per-layer metrics produced (missing: {missing})")
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}
        for k, u in units.items():
            if k in values:
                print(f"{a.workload} {k} = {values[k]:.6g} {u}  (moves {moves.get(k, '?')})")
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        fn = {"sampling-paper": lambda: sampling_paper(dca, work, a.seconds, fails),
              "serve-mix": lambda: serve_mix(dca, tracer, work, a.seed, a.seconds, fails)}[a.workload]
        m, samples, rate = fn()
        notes = {}
        for kind in ("warm", "cold"):
            s = summary(samples[kind])
            m[f"{kind}_p50_ms"], m[f"{kind}_tail_ms"] = s["p50"], s["tail"]
            notes[f"{kind}_tail_ms"] = tail_note(s)
        m["req_per_s"] = rate
        metrics = {k: {"value": m[k], "unit": u} for k, u in units.items()}
        # Every metric is printed; the one BENCHMARK.json does not gate
        # (warm_tail_ms, see README) is marked, its unit read off its name.
        for k in m:
            gate = "" if k in units else "  (printed, not gated)"
            note = f"  [{notes[k]}]" if k in notes else ""
            print(f"{a.workload} {k} = {m[k]:.6g} {units.get(k, k.rsplit('_', 1)[1])}{note}{gate}")
        print(f"{a.workload} error_rate = {fails.failed / max(fails.attempted, 1):.6g} "
              f"(failed/attempted = {fails.failed}/{fails.attempted})")
    result = {"correct": fails.failed == 0, "attempted": fails.attempted, "failed": fails.failed,
              "metrics": metrics}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(dict(result, stamp=st, failures=fails.notes, samples=samples), f, indent=1)
    print("stamp " + json.dumps(st))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
