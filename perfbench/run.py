#!/usr/bin/env python3
"""The faultmc benchmark: three workloads, their end-to-end metrics, and a
separate traced pass for per-layer metrics. See perfbench/README.md.

Run from the root of a checkout:

    python3 perfbench/run.py --workload write-causal [--seed 7] [--seconds 20] [--trace 0]

It builds faultmc with dune (and, for --trace 1, perfbench/tracer),
runs the workload through the `faultmc` command line, checks every
output, prints a human summary, and ends stdout with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Only files under perfbench/.work and _build are written.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import harness  # noqa: E402

FAULTMC = os.path.join("_build", "default", "bin", "faultmc.exe")
TRACER = os.path.join("_build", "default", "perfbench", "tracer", "tracer.exe")
WORK = os.path.join("perfbench", ".work")
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# Campaign k of a run is seeded with seed + k * SEED_STRIDE, so campaign 0
# runs at exactly the seed given on the command line.
SEED_STRIDE = 1_000_003

# A run's whole budget after the build; a hung child is killed at this point.
RUN_DEADLINE_S = 170

# Nominal seconds of one evaluate campaign on a 2-vCPU Xeon: --seconds
# divided by this fixes how many campaigns a run makes.
CAMPAIGN_S = 6.5

WORKLOADS = {
    # The paper's headline campaign: disc transients, mixed importance
    # sampling, causal attribution on.
    "write-causal": {
        "flags": ["-b", "write", "-s", "mixed"],
        # Per campaign. The CI crossing lies near 11k samples (sd ~1.4k
        # across seeds), so 18k leaves the "stays there" tail room.
        "samples": 18000,
        "setup_launches": 0,
        "trace_samples": 10000,
    },
    # Plain Monte Carlo with the masking-certificate pruner: a different
    # mix of engine work, no importance tables.
    "read-pruned": {
        "flags": ["-b", "read", "-s", "random", "--prune"],
        "samples": 26000,  # the crossing lies near 20.5k (sd ~1k)
        "setup_launches": 2,
        "trace_samples": 20000,
    },
    # seu-burst through one serve + one worker: no gate-level work, so
    # the distributed layers carry a large share of the time.
    "seu-fleet": {
        "flags": ["-b", "write", "-s", "mixed", "--fault-model", "seu-burst"],
        "samples_per_s": 10000,  # fleet campaign size per --seconds
        "shard_size": 1000,
        "ci_block_shards": 4,  # blocks of 4k samples hold the ~1k-sample CI crossing
        "setup_probes": 2,  # extra one-shard fleets that only time set-up
        "trace_samples": 50000,
    },
}

END_TO_END = [
    ("setup_s", "s"),
    ("samples_per_s", "samples/s"),
    ("time_to_ci_s", "s"),
    ("samples_to_ci", "samples"),
    ("heap_peak_mb", "MiB"),
]

# Per-layer metrics of the traced pass, named after the span the tracer
# records around each call (perfbench/tracer/tracer.ml).
SETUP_SPANS = [
    "experiments.context",
    "engine.create",
    "engine.static_vuln",
    "experiments.attack",
    "sampler.prepare",
    "sva.pruner_create",
]
CALL_SPANS_US = [
    "sampler.draw",
    "sva.check",
    "engine.run_sample",
    "fault.seu_run",
    "engine.causal",
    "ssf.tally_record",
    "golden.restore",
    "engine.partition",
    "gatesim.settle",
    "gatesim.transient",
    "engine.writeback",
    "engine.masking",
    "engine.analytical",
    "cpu.rtl_resume",
    "dist.codec",
    "audit.digest",
]
CALL_SPANS_MS = ["dist.ckpt_write", "dist.merge"]
OTHER_SPANS = ["replay", "check.gate_level_cycle", "dist.ckpt_load", "ssf.report",
               "trace.overhead_pass"]
COUNT_METRICS = [
    ("sva.pruned_share", "share"),
    ("engine.causal_per_sample", "calls/sample"),
    ("golden.restores_per_sample", "restores/sample"),
    ("cpu.rtl_cycles_per_sample", "cycles/sample"),
    ("engine.gate_cycles_per_sample", "cycles/sample"),
    ("gc.minor_words_per_sample", "words/sample"),
    ("dist.bytes_per_shard", "bytes/shard"),
    ("dist.heartbeats_per_shard", "count/shard"),
    ("dist.shard_roundtrip_ms", "ms"),
]
TRACE_METRICS = [
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "share"),
    ("trace.traced_samples_per_s", "samples/s"),
    ("trace.untraced_samples_per_s", "samples/s"),
    ("trace.overhead_share", "share"),
    ("trace.span_cost_ns", "ns"),
    ("trace.span_overhead_share", "share"),
    ("trace.counters_repeat", "bool"),
    ("trace.replays", "count"),
    ("trace.replay_mismatches", "count"),
]
# Counters that must repeat exactly between two traced runs.
EXACT_COUNTERS = [
    "samples",
    "simulated",
    "pruned",
    "causal_calls",
    "replays",
    "restores",
    "rtl_cycles",
    "gate_cycles",
    "minor_words",
    "dist_shards",
]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = [(name + "_s", "s") for name in SETUP_SPANS]
    for names, unit in ((CALL_SPANS_US, "us"), (CALL_SPANS_MS, "ms")):
        for name in names:
            out += [
                (f"{name}_{unit}.p50", unit),
                (f"{name}_{unit}.p99", unit),
                (f"{name}.calls", "count"),
            ]
    for name in SETUP_SPANS + CALL_SPANS_US + CALL_SPANS_MS + OTHER_SPANS:
        out.append((name + ".self_share", "share"))
    return out + COUNT_METRICS + TRACE_METRICS


class BenchError(Exception):
    """The benchmark could not run: no result is printed."""


def note(msg):
    print(msg, flush=True)


def md5(data):
    return hashlib.md5(data).hexdigest()


# ---------------------------------------------------------------------------
# Child processes


LIVE = []


class Child:
    """A child process whose stdout is collected, whose stderr lines are
    timestamped on arrival (progress rows), and whose own peak resident
    memory is read from wait4 when it is reaped."""

    def __init__(self, argv):
        self.argv = argv
        self.stdout = b""
        self.lines = []
        self.returncode = None
        self.t_spawn = time.monotonic()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        LIVE.append(self)
        self.readers = [
            threading.Thread(target=self._read_stdout, daemon=True),
            threading.Thread(target=self._read_stderr, daemon=True),
        ]
        for t in self.readers:
            t.start()

    def _read_stdout(self):
        self.stdout = self.proc.stdout.read()

    def _read_stderr(self):
        for line in self.proc.stderr:
            self.lines.append((time.monotonic(), line.decode("utf-8", "replace")))

    def exited(self):
        return not self.readers[0].is_alive()

    def wait(self):
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.t_exit = time.monotonic()
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        for t in self.readers:
            t.join()
        self.maxrss_mib = usage.ru_maxrss / 1024.0
        LIVE.remove(self)
        return self.returncode

    def stop(self):
        if self.returncode is None:
            self.proc.terminate()
            self.wait()

    def progress(self):
        return [(t, json.loads(line)) for t, line in self.lines if line.startswith('{"n":')]

    def check(self):
        """Wait, and fail the run unless the command succeeded."""
        if self.wait() != 0:
            tail = "".join(line for _, line in self.lines[-5:])
            raise BenchError(f"{' '.join(self.argv)} exited {self.returncode}\n{tail}")
        return self


def stop_all():
    for child in list(LIVE):
        try:
            child.stop()
        except (OSError, ChildProcessError):
            pass


def on_deadline(signum, frame):
    stop_all()
    print(f"perfbench: run exceeded {RUN_DEADLINE_S}s", file=sys.stderr, flush=True)
    os._exit(3)


# ---------------------------------------------------------------------------
# Building


def build(targets):
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "faultmc.ml"))):
        raise BenchError("run from the root of a faultmc checkout (dune-project, bin/faultmc.ml)")
    env = dict(os.environ, DUNE_CACHE="disabled")
    result = subprocess.run(
        ["dune", "build", "--root", ".", *targets], env=env, stdout=sys.stderr, stderr=sys.stderr
    )
    if result.returncode != 0:
        raise BenchError("dune build failed")


# ---------------------------------------------------------------------------
# One `faultmc evaluate` campaign


def evaluate(flags, samples, seed, extra=()):
    child = Child(
        [FAULTMC, "evaluate", *flags, "-n", str(samples), "--seed", str(seed), "--json",
         "--progress", "jsonl", *extra]
    ).check()
    rows = child.progress()
    if not rows:
        raise BenchError("evaluate printed no progress rows")
    t_first, first = rows[0]
    last = rows[-1][1]
    return {
        "setup_s": t_first - first["elapsed_s"] - child.t_spawn,
        # a one-sample launch can finish inside the clock's resolution
        "samples_per_s": last["n"] / last["elapsed_s"] if last["elapsed_s"] > 0 else None,
        "rows": [row for _, row in rows],
        "heap_mb": child.maxrss_mib,
        "report": child.stdout,
    }


def crossing(rows, samples):
    """(samples, seconds) at the CI crossing; a run that never settles
    below the target is censored at its end."""
    row = harness.ci_crossing(rows)
    if row is None:
        note(f"  warning: CI never settled within {samples} samples; censored at the end")
        row = rows[-1]
    return row["n"], row["elapsed_s"]


def report_checks(report, samples, reference=None):
    """Output checks on one --json report: nothing quarantined, the
    expected sample count, and (given a reference) an SSF within 4
    standard errors of it. Returns (failed samples, problems)."""
    rep = json.loads(report)
    problems = []
    quarantined = rep["outcomes"]["quarantined"]
    if quarantined:
        problems.append(f"{quarantined} quarantined")
    if rep["samples"] != samples:
        problems.append(f"{rep['samples']} samples, expected {samples}")
    if reference is not None:
        se = (rep["variance"] / rep["samples"] + reference["se"] ** 2) ** 0.5
        z = abs(rep["ssf"] - reference["ssf"]) / se
        if z > 4:
            problems.append(f"SSF {rep['ssf']:.6f} is {z:.1f} SE from reference {reference['ssf']:.6f}")
    return (samples if problems else quarantined), problems


def load_reference(name):
    with open(REFERENCE) as f:
        return json.load(f)[name]


def run_local(name, spec, seed, seconds):
    """write-causal and read-pruned: K fixed-size campaigns at seeds
    derived from --seed, plus short launches that only time set-up."""
    reference = load_reference(name)
    k_runs = max(2, round(seconds / CAMPAIGN_S))
    samples = spec["samples"]
    attempted = failed = 0
    problems = []
    campaigns = []
    for k in range(k_runs):
        s = seed + k * SEED_STRIDE
        c = evaluate(spec["flags"], samples, s)
        c["seed"] = s
        c["ci_samples"], c["ci_s"] = crossing(c["rows"], samples)
        bad, issues = report_checks(c["report"], samples, reference)
        attempted += samples
        failed += bad
        problems += issues
        campaigns.append(c)
        note(
            f"  campaign seed={s}: {c['samples_per_s']:.1f} samples/s, CI at {c['ci_samples']}"
            f" samples / {c['ci_s']:.3f} s, setup {c['setup_s']:.3f} s, heap {c['heap_mb']:.1f} MiB,"
            f" report md5 {md5(c['report'])}"
        )
    if "--prune" in spec["flags"]:
        # The pruned report must be byte-identical to the unpruned one.
        first = campaigns[0]
        unpruned = evaluate([f for f in spec["flags"] if f != "--prune"], samples, first["seed"])
        same = unpruned["report"] == first["report"]
        note(f"  unpruned seed={first['seed']}: report md5 {md5(unpruned['report'])}"
             f" ({'identical' if same else 'DIFFERS'})")
        if not same:
            failed += samples
            problems.append("pruned report differs from the unpruned report")
    setups = [c["setup_s"] for c in campaigns]
    for _ in range(spec["setup_launches"]):
        setups.append(evaluate(spec["flags"], 1, seed)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": statistics.median(c["samples_per_s"] for c in campaigns),
        "time_to_ci_s": statistics.mean(c["ci_s"] for c in campaigns),
        "samples_to_ci": statistics.mean(c["ci_samples"] for c in campaigns),
        "heap_peak_mb": statistics.median(c["heap_mb"] for c in campaigns),
    }
    return metrics, attempted, failed, problems


# ---------------------------------------------------------------------------
# seu-fleet: one serve and one worker on a Unix socket


def wait_for_socket(path, serve):
    deadline = time.monotonic() + 30
    while not os.path.exists(path):
        if serve.exited() or time.monotonic() > deadline:
            raise BenchError("faultmc serve did not start listening")
        time.sleep(0.001)


def remove(path):
    try:
        os.remove(path)
    except FileNotFoundError:
        pass


def fleet(flags, samples, seed, shard_size, tag, metrics_out=None, probe=False):
    """One fleet campaign. The worker starts once the socket exists (a
    worker that connects too early backs off); the report is fetched with
    `evaluate --connect` as soon as the worker is done, inside the
    coordinator's linger window. A probe only times set-up: its
    coordinator is stopped once the worker exits."""
    sock = os.path.join(WORK, tag + ".sock")
    ckpt = os.path.join(WORK, tag + ".ckpt")
    for path in (sock, ckpt, ckpt + ".tmp"):
        remove(path)
    ident = [*flags, "-n", str(samples), "--seed", str(seed), "--shard-size", str(shard_size)]
    addr = "unix:" + sock
    serve_argv = [FAULTMC, "serve", *ident, "--listen", addr, "--checkpoint", ckpt,
                  "--linger", "2s", "--json"]
    if metrics_out:
        serve_argv += ["--metrics-out", metrics_out]
    serve = Child(serve_argv)
    try:
        wait_for_socket(sock, serve)
        worker = Child([FAULTMC, "worker", "--connect", addr, *ident, "--progress", "jsonl"]).check()
        out = {"heap_mb": worker.maxrss_mib, "ckpt": ckpt}
        if probe:
            serve.stop()
        else:
            fetch = Child([FAULTMC, "evaluate", "--connect", addr, *ident, "--json"]).check()
            out["t_done"] = fetch.t_exit
            out["fetched"] = fetch.stdout
            out["served"] = serve.check().stdout
    finally:
        stop_all()
        remove(sock)
    rows = worker.progress()
    if not rows:
        raise BenchError("faultmc worker printed no progress rows")
    t_first, first = rows[0]
    t_sample0 = t_first - first["elapsed_s"]
    out["setup_s"] = t_sample0 - serve.t_spawn
    out["timed_rows"] = rows
    if not probe:
        out["samples_per_s"] = samples / (out["t_done"] - t_sample0)
    return out


def fleet_samples(spec, seconds):
    return max(spec["shard_size"], round(seconds * spec["samples_per_s"] / 1000) * 1000)


def run_fleet(name, spec, seed, seconds):
    """seu-fleet: one fleet campaign, checked byte for byte against
    `evaluate --shard-size`, plus one-shard fleets that only time set-up."""
    samples = fleet_samples(spec, seconds)
    shard = spec["shard_size"]
    camp = fleet(spec["flags"], samples, seed, shard, "fleet")
    problems = []
    bad, issues = report_checks(camp["served"], samples)
    problems += issues
    reference = evaluate(spec["flags"], samples, seed, extra=("--shard-size", str(shard)))["report"]
    same = camp["served"] == reference and camp["fetched"] == reference
    note(
        f"  fleet seed={seed}: {samples} samples, {camp['samples_per_s']:.1f} samples/s,"
        f" setup {camp['setup_s']:.3f} s, worker heap {camp['heap_mb']:.1f} MiB;"
        f" served md5 {md5(camp['served'])}, fetched md5 {md5(camp['fetched'])},"
        f" evaluate --shard-size md5 {md5(reference)} ({'identical' if same else 'DIFFER'})"
    )
    if not same:
        bad = samples
        problems.append("fleet report differs from evaluate --shard-size")
    attempted, failed = samples, bad
    # seu-burst settles within ~1k samples, so one crossing is a few tens
    # of milliseconds: average it over the campaign's blocks instead.
    ci = harness.block_crossings(harness.split_shards(camp["timed_rows"]), spec["ci_block_shards"])
    if not ci:
        raise BenchError("no block of the fleet campaign settled below the CI target")
    note(f"  CI crossings in {len(ci)} blocks of {spec['ci_block_shards']} shards:"
         f" mean {statistics.mean(n for n, _ in ci):.1f} samples / {statistics.mean(t for _, t in ci):.4f} s")
    setups = [camp["setup_s"]]
    for k in range(1, spec["setup_probes"] + 1):
        p = fleet(spec["flags"], shard, seed + k * SEED_STRIDE, shard, "probe", probe=True)
        attempted += shard
        setups.append(p["setup_s"])
        note(f"  set-up probe: {p['setup_s']:.3f} s")
    metrics = {
        "setup_s": statistics.median(setups),
        "samples_per_s": camp["samples_per_s"],
        "time_to_ci_s": statistics.mean(t for _, t in ci),
        "samples_to_ci": statistics.mean(n for n, _ in ci),
        "heap_peak_mb": camp["heap_mb"],
    }
    return metrics, attempted, failed, problems


# ---------------------------------------------------------------------------
# The traced pass


def read_prometheus(path):
    values = {}
    with open(path) as f:
        for line in f:
            if line and not line.startswith("#"):
                key, _, value = line.rpartition(" ")
                values[key] = float(value)
    return values


def tracer(name, seed, samples, tag, dist_args=()):
    out = os.path.join(WORK, tag + ".trace")
    report = os.path.join(WORK, tag + ".report")
    Child(
        [TRACER, "--workload", name, "--seed", str(seed), "--samples", str(samples), "--out", out,
         "--report-out", report, *dist_args]
    ).check()
    with open(out) as f:
        spans, counters, checks, meta = harness.parse_trace(f)
    with open(report, "rb") as f:
        report_bytes = f.read()
    return {"spans": spans, "counters": counters, "checks": checks, "meta": meta,
            "report": report_bytes}


def layer_metrics(run):
    spans, counters, meta = run["spans"], run["counters"], run["meta"]
    durs = harness.durations(spans)
    selfs = harness.self_times(spans)
    wall = meta["wall_s"]
    m = {}
    for name in SETUP_SPANS:
        m[name + "_s"] = sum(durs.get(name, [])) / 1e6
    for names, unit, scale in ((CALL_SPANS_US, "us", 1.0), (CALL_SPANS_MS, "ms", 1e-3)):
        for name in names:
            t = harness.timing([d * scale for d in durs.get(name, [])])
            m[f"{name}_{unit}.p50"] = t["p50"]
            m[f"{name}_{unit}.p99"] = t["p99"]
            m[f"{name}.calls"] = t["calls"]
    for name in SETUP_SPANS + CALL_SPANS_US + CALL_SPANS_MS + OTHER_SPANS:
        m[name + ".self_share"] = selfs.get(name, 0.0) / 1e6 / wall
    n = counters["samples"]
    m["sva.pruned_share"] = counters["pruned"] / n
    m["engine.causal_per_sample"] = counters["causal_calls"] / n
    m["golden.restores_per_sample"] = counters["restores"] / n
    m["cpu.rtl_cycles_per_sample"] = counters["rtl_cycles"] / n
    m["engine.gate_cycles_per_sample"] = counters["gate_cycles"] / n
    m["gc.minor_words_per_sample"] = counters["minor_words"] / n
    _, remainder = harness.closure(selfs, wall)
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = remainder
    m["trace.unattributed_share"] = remainder / wall
    # The same first quarter of the sample stream, traced and untraced.
    m["trace.traced_samples_per_s"] = meta["overhead_samples"] / meta["overhead_traced_s"]
    m["trace.untraced_samples_per_s"] = meta["overhead_samples"] / meta["overhead_untraced_s"]
    m["trace.overhead_share"] = meta["overhead_traced_s"] / meta["overhead_untraced_s"] - 1
    m["trace.span_cost_ns"] = meta["span_cost_ns"]
    m["trace.span_overhead_share"] = meta["main_spans"] * meta["span_cost_ns"] / 1e9 / meta["loop_s"]
    m["trace.replays"] = counters["replays"]
    return m


def run_traced(name, spec, seed, seconds):
    samples = spec["trace_samples"]
    problems = []
    attempted = failed = 0
    dist_args = ()
    # Fleet-side layers, measured only where a fleet runs.
    dist = {"dist.bytes_per_shard": 0.0, "dist.heartbeats_per_shard": 0.0,
            "dist.shard_roundtrip_ms": 0.0}
    if name == "seu-fleet":
        n_fleet = fleet_samples(spec, seconds)
        metrics_out = os.path.join(WORK, "serve-metrics.txt")
        served_fleet = fleet(spec["flags"], n_fleet, seed, spec["shard_size"], "fleet",
                             metrics_out=metrics_out)
        attempted += n_fleet
        bad, issues = report_checks(served_fleet["served"], n_fleet)
        failed += bad
        problems += issues
        served = os.path.join(WORK, "served.json")
        with open(served, "wb") as f:
            f.write(served_fleet["served"])
        prom = read_prometheus(metrics_out)
        shards = prom["fmc_dist_shards_completed_total"]
        heartbeats = prom["fmc_dist_heartbeats_total"] / shards
        dist["dist.bytes_per_shard"] = (
            prom["fmc_dist_bytes_received_total"] + prom["fmc_dist_bytes_sent_total"]
        ) / shards
        dist["dist.heartbeats_per_shard"] = heartbeats
        dist["dist.shard_roundtrip_ms"] = (
            1e3 * prom["fmc_dist_shard_roundtrip_seconds_sum"]
            / prom["fmc_dist_shard_roundtrip_seconds_count"]
        )
        dist_args = ("--ckpt", served_fleet["ckpt"], "--served", served,
                     "--scratch", os.path.join(WORK, "scratch.ckpt"),
                     "--heartbeats-per-shard", str(round(heartbeats)))
    cli = evaluate(spec["flags"], samples, seed)
    attempted += samples
    bad, issues = report_checks(cli["report"], samples)
    failed += bad
    problems += issues
    runs = [tracer(name, seed, samples, f"trace{i}", dist_args) for i in range(2)]
    attempted += 2 * (samples + 3 * (samples // 4))  # per tracer run: main pass + overhead passes
    for i, run in enumerate(runs):
        for check, ok, detail in run["checks"]:
            note(f"  trace run {i}: check {check}: {'ok' if ok else 'FAIL'} {detail}")
            if not ok:
                problems.append(f"traced run {i}: {check}: {detail}")
        if run["report"] != cli["report"]:
            problems.append(f"traced run {i}: report differs from faultmc evaluate")
    note(f"  evaluate report md5 {md5(cli['report'])}; traced reports "
         + ", ".join(md5(r["report"]) for r in runs))
    exact = [{k: r["counters"].get(k, 0) for k in EXACT_COUNTERS} for r in runs]
    repeat = exact[0] == exact[1]
    note(f"  exact counters {exact[0]} {'repeat' if repeat else 'DIFFER: ' + str(exact[1])}")
    if not repeat:
        problems.append("exact counters differ between two traced runs")
    if problems:
        failed = attempted
    m = layer_metrics(runs[0])
    m.update(dist)
    if dist_args:
        c = runs[0]["counters"]
        note(f"  codec input: {c['dist_codec_bytes'] / c['dist_shards']:.0f} encoded bytes/shard"
             f" against {dist['dist.bytes_per_shard']:.0f} wire bytes/shard in the fleet")
    m["trace.counters_repeat"] = 1 if repeat else 0
    m["trace.replay_mismatches"] = sum(
        1 for run in runs for check, ok, _ in run["checks"] if check.startswith("replay.") and not ok
    )
    note(f"  closure: spans cover {1 - m['trace.unattributed_share']:.3f} of {m['trace.wall_s']:.3f} s,"
         f" unattributed {m['trace.unattributed_s']:.3f} s; tracing overhead"
         f" {m['trace.overhead_share']:+.3f} ({m['trace.traced_samples_per_s']:.1f} traced vs"
         f" {m['trace.untraced_samples_per_s']:.1f} untraced samples/s); recorder cost"
         f" {m['trace.span_cost_ns']:.0f} ns/span = {m['trace.span_overhead_share']:.5f} of the traced pass")
    return m, attempted, failed, problems


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = WORKLOADS[args.workload]
    try:
        build([FAULTMC] + ([TRACER] if args.trace else []))
        signal.signal(signal.SIGALRM, on_deadline)
        signal.alarm(RUN_DEADLINE_S)
        os.makedirs(WORK, exist_ok=True)
        note(f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}")
        if args.trace:
            metrics, attempted, failed, problems = run_traced(
                args.workload, spec, args.seed, args.seconds
            )
            units = per_layer_metrics()
        else:
            run = run_fleet if args.workload == "seu-fleet" else run_local
            metrics, attempted, failed, problems = run(args.workload, spec, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as e:
        stop_all()
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    signal.alarm(0)
    for problem in problems:
        note(f"  CHECK FAILED: {problem}")
    for name, unit in units:
        note(f"  {name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
