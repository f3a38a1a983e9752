#!/usr/bin/env python3
"""The RD2 benchmark.

    python3 perfbench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --record-reference [--workload NAME]

Run from the root of a checkout. The script builds `rd2` and the
benchmark's own `perfbench` executable with dune, generates the
workload's inputs from the seed, and then measures for S seconds:

* `--trace 0` runs what users run (`rd2 check`, `rd2 predict`,
  `rd2 serve` + `Client.send_file`) as separate processes and reports
  the end-to-end metrics;
* `--trace 1` replays the same inputs through `perfbench.exe`, which
  puts a span around every call into a layer, and reports the per-layer
  metrics. It also runs one untraced pass to give the tracing overhead.

The end-to-end wall times are scaled by the host's speed, measured next
to them by timing `perfbench calibrate` (see `host_speed`).

Every verdict is checked against `perfbench/reference.json` (recorded by
`--record-reference` from the corpus below) and against a second path:
`Shard.analyze` at `--jobs nproc` for the check workloads, offline
`rd2 check -v` for serve-ingest replies. The last line of standard
output is one JSON object: correct, attempted, failed, metrics (each
metric by name with its value and unit). See perfbench/WORKLOADS.md.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = "perfbench"
WORK = os.path.join(HERE, "_work")
INPUTS = os.path.join(WORK, "inputs")
REFERENCE = os.path.join(HERE, "reference.json")
RD2 = os.path.join("_build", "default", "bin", "rd2.exe")
PERFBENCH = os.path.join("_build", "default", "perfbench", "perfbench.exe")
NPROC = len(os.sched_getaffinity(0))

# Sessions a serve-ingest run completes at least, so that p90 has ten
# samples beyond it.
MIN_SESSIONS = 100
# Set-up launches are spread over the run (before every round, or before
# and after the measured server) so that their median sees the same
# machine as the rest of the run.
SETUP_PER_ROUND = 3
SERVE_SETUP_REPEATS = 12
# serve-ingest runs its load in this many segments, each after a
# measurement of the host's speed.
SERVE_SEGMENTS = 5

# ---------------------------------------------------------------------------
# Workloads and their input corpus
# ---------------------------------------------------------------------------

# Input families: the `rd2` command that generates one input, by seed.
SYNTH_FAMILIES = {
    # zipf 0.9, 8 threads, 1024 objects are the `rd2 synth` defaults.
    "dense": ["-n", "100000"],
    "contended": ["-n", "15000", "--sync-period", "16"],
    "ingest4k": ["-n", "4000"],
    "ingest8k": ["-n", "8000"],
    "ingest16k": ["-n", "16000"],
}
POLEPOS_SCALE = 8
# The Table 2 traces on which RD2 reports no race.
POLEPOS_RACE_FREE = ["NestedLists", "QueryCentricConcurrency", "Complex"]

CORPUS_SEEDS = range(1, 17)


def corpus(workload):
    """Every input key a run of `workload` may draw from."""
    if workload == "check-dense":
        return [f"dense-s{s}" for s in CORPUS_SEEDS]
    if workload == "check-sparse":
        return [f"polepos-s{s}/{n}" for s in CORPUS_SEEDS for n in POLEPOS_RACE_FREE]
    if workload == "predict-contended":
        return [f"contended-s{s}" for s in CORPUS_SEEDS]
    if workload == "serve-ingest":
        return [f"ingest{k}-s{s}" for k in ("4k", "8k", "16k") for s in range(1, 9)]
    raise ValueError(workload)


def run_inputs(workload, seed):
    """The inputs one run uses: drawn from the corpus by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "check-sparse":
        s = rng.choice(list(CORPUS_SEEDS))
        return [f"polepos-s{s}/{n}" for n in POLEPOS_RACE_FREE]
    if workload == "serve-ingest":
        # The same number of traces of each size in every run, so that
        # the latency percentiles do not follow the draw.
        return [f"ingest{k}-s{s}" for k in ("4k", "8k", "16k")
                for s in rng.sample(range(1, 9), 3)]
    return rng.sample(corpus(workload), 4)


# Tiny inputs for set-up time: the program starts, loads its specs,
# translates them and takes its first events.
PROBES = {
    "check-dense": "dense-probe",
    "check-sparse": "polepos-probe/Complex",
    "predict-contended": "contended-probe",
}

WORKLOADS = ["check-dense", "check-sparse", "serve-ingest", "predict-contended"]

END_TO_END = [
    ("events_per_s", "events/s"),
    ("alloc_words_per_event", "words/event"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("session_latency_p50_s", "s"),
    ("session_latency_p90_s", "s"),
    ("setup_s", "s"),
]

PER_LAYER = [
    ("wire.decode_s", "s"),
    ("wire.words_per_event", "words/event"),
    ("hb.step_s", "s"),
    ("hb.words_per_event", "words/event"),
    ("apoint.translate_s", "s"),
    ("rd2.step_s", "s"),
    ("rd2.words_per_event", "words/event"),
    ("rd2.lookups_per_action", "lookups/action"),
    ("rd2.same_epoch_ratio", "ratio"),
    ("rd2.races_per_event", "races/event"),
    ("report.build_words_per_race", "words/race"),
    ("report.render_s", "s"),
    ("report.render_bytes_per_race", "bytes/race"),
    ("report.fingerprint_s", "s"),
    ("report.distinct_ratio", "ratio"),
    ("shard.analyze_s", "s"),
    ("server.handshake_s", "s"),
    ("server.analyze_s", "s"),
    ("server.session_s", "s"),
    ("client.stream_s", "s"),
    ("client.reply_wait_s", "s"),
    ("racedb.append_s", "s"),
    ("racedb.compact_s", "s"),
    ("racedb.dropped_ratio", "ratio"),
    ("racedb.bytes_per_race", "bytes/race"),
    ("predict.analyze_s", "s"),
    ("predict.candidates", "count"),
    ("predict.closures", "count"),
    ("predict.capped_ratio", "ratio"),
    ("gc.major_collections", "count"),
    ("gc.top_heap_words", "words"),
    ("trace.overhead_ratio", "ratio"),
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failure(Exception):
    """A setup step failed: the run cannot produce a result."""


# ---------------------------------------------------------------------------
# Building and generating
# ---------------------------------------------------------------------------


def check_checkout():
    for path in ("dune-project", os.path.join("bin", "rd2.ml"), "lib"):
        if not os.path.exists(path):
            raise Failure(f"{path} not found: run from the root of a full checkout")


def build():
    log("building rd2 and perfbench")
    # No shared dune cache and no system temp dir: the build stays in
    # the checkout.
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/rd2.exe", "./perfbench/perfbench.exe"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(tmp)))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        raise Failure("dune build failed")


def run_quiet(cmd):
    r = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise Failure(f"{' '.join(cmd)} failed: {r.stderr.strip()}")


def input_path(key):
    """Path of the CRDW trace for `key`, generated on first use."""
    if key.startswith("polepos-"):
        dump, name = key.split("/")
        seed = dump[len("polepos-"):]
        path = os.path.join(INPUTS, dump, name + ".ctrace")
        if not os.path.exists(path):
            scale, seed = ("1", "1") if seed == "probe" else (str(POLEPOS_SCALE), seed[1:])
            tmp = os.path.join(INPUTS, dump + ".tmp")
            shutil.rmtree(tmp, ignore_errors=True)
            os.makedirs(INPUTS, exist_ok=True)
            run_quiet([RD2, "table2", "--dump", tmp, "--format", "bin",
                       "--scale", scale, "--seed", seed])
            shutil.rmtree(os.path.join(INPUTS, dump), ignore_errors=True)
            os.rename(tmp, os.path.join(INPUTS, dump))
        return path
    family, seed = key.rsplit("-", 1)
    path = os.path.join(INPUTS, key + ".ctrace")
    if not os.path.exists(path):
        args = list(SYNTH_FAMILIES[family])
        if seed == "probe":
            args[1] = "64"
            seed = "s1"
        os.makedirs(INPUTS, exist_ok=True)
        tmp = path + ".tmp"
        run_quiet([RD2, "synth", *args, "--seed", seed[1:], "--format", "bin", "-o", tmp])
        os.rename(tmp, path)
    return path


def load_reference(path=REFERENCE):
    if not os.path.exists(path):
        raise Failure(f"{path} not found")
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Running and parsing rd2
# ---------------------------------------------------------------------------


def ocaml_env():
    # At exit the runtime prints its allocation and heap counters.
    return dict(os.environ, OCAMLRUNPARAM="v=0x400")


def spawn(cmd, out, err):
    with open(out, "wb") as fo, open(err, "wb") as fe:
        return subprocess.Popen(cmd, stdout=fo, stderr=fe, env=ocaml_env())


def reap(proc):
    """Wait for `proc`; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def timed(cmd, tag):
    """Run `cmd` to completion; stdout and stderr go to files."""
    out = os.path.join(WORK, f"{tag}.out")
    err = os.path.join(WORK, f"{tag}.err")
    t0 = time.perf_counter()
    proc = spawn(cmd, out, err)
    code, rss = reap(proc)
    wall = time.perf_counter() - t0
    return {"wall": wall, "rss_mb": rss, "code": code, "out": out,
            "gc": gc_stats(err)}


def gc_stats(err_path):
    stats = {}
    with open(err_path, "rb") as f:
        for line in f:
            m = re.match(rb"^([a-z_]+): ([0-9.]+)$", line.strip())
            if m:
                stats[m.group(1).decode()] = float(m.group(2))
    return stats


RACE_PREFIX = b"commutativity race"
FP_LINE = re.compile(rb"^[0-9a-f]{16}$")


def digest_lines(lines):
    h = hashlib.md5()
    for line in lines:
        h.update(line + b"\n")
    return h.hexdigest()


def parse_check(data):
    """Verdict of `rd2 check -v --fingerprints` (or a server reply)."""
    lines = data.split(b"\n")
    events = races = distinct = None
    for line in lines[:8]:
        m = re.match(rb"^events: (\d+)$", line)
        if m:
            events = int(m.group(1))
        m = re.match(rb"^rd2: (\d+) races \((\d+) distinct\)$", line)
        if m:
            races, distinct = int(m.group(1)), int(m.group(2))
    race_lines = [l for l in lines if l.startswith(RACE_PREFIX)]
    fps = [l for l in lines if FP_LINE.match(l)]
    return {"events": events, "races": races, "distinct": distinct,
            "lines_md5": digest_lines(race_lines), "fps_md5": digest_lines(fps)}


PREDICT_LINE = re.compile(
    rb"events (\d+)  calls (\d+)  witnessed (\d+) \((\d+) distinct\)  "
    rb"predicted \+(\d+)  candidates (\d+)  closures (\d+)  capped (\d+)")


def parse_predict(data):
    m = PREDICT_LINE.search(data)
    if not m:
        return {}
    keys = ["events", "calls", "witnessed", "witnessed_distinct", "predicted",
            "candidates", "closures", "capped"]
    return dict(zip(keys, map(int, m.groups())))


def read(path):
    with open(path, "rb") as f:
        return f.read()


def check_cmd(path, jobs=1):
    cmd = [RD2, "check", "-v", "--fingerprints", "--format", "bin", path]
    if jobs > 1:
        cmd += ["--jobs", str(jobs), "--force-parallel"]
    return cmd


def predict_cmd(path):
    return [RD2, "predict", "--format", "bin", path]


CHECK_FIELDS = ["events", "races", "distinct", "lines_md5", "fps_md5"]


def check_matches(ref, got, fields=CHECK_FIELDS):
    return [f for f in fields if got.get(f) != ref.get(f)]


def exit_problem(r):
    return [f"exit {r['code']}"] if r["code"] else []


PREDICT_FIELDS = ["events", "calls", "witnessed", "witnessed_distinct", "predicted"]


def predict_matches(ref, got):
    bad = [f for f in PREDICT_FIELDS[:-1] if got.get(f) != ref.get(f)]
    # The candidate caps cost completeness, never soundness: a pass that
    # examines more candidates may predict more races, never fewer.
    if got.get("predicted", -1) < ref["predicted"]:
        bad.append("predicted")
    return bad


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(xs, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ratio(a, b):
    return a / b if b else 0.0


class Verdicts:
    """Counts verdicts attempted and failed; a failure fails the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{what}: {problems}")
            log(f"MISMATCH {what}: {problems}")

    def reconcile(self, problems):
        """Reconciliation checks: no verdict of their own, but fail the run."""
        for p in problems:
            self.problems.append(f"reconciliation: {p}")
            log(f"RECONCILIATION FAILED {p}")


def reconcile_traced(mode, row, want):
    """Per-layer event counts of one traced replay must equal the input's."""
    if mode == "predict":
        counts = {"decoded": row["events"], "predict": row["predict_events"]}
    else:
        counts = {"decoded": row["events"], "hb": row["hb_events"]}
    problems = [f"{row['file']}: {layer} events {n} != {want['events']}"
                for layer, n in counts.items() if n != want["events"]]
    if mode == "check" and row["rd2_actions"] != row["calls"]:
        problems.append(f"{row['file']}: rd2 actions {row['rd2_actions']} != "
                        f"call events {row['calls']}")
    return problems


def reconcile_race_counts(field, traced, untraced):
    """Traced race counts (every round) must equal the untraced run's."""
    return [f"traced {field} {sorted(traced)} != untraced {untraced}"] \
        if set(traced) != {untraced} else []


def delta(after, before, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def reconcile_serve(before, after, code, exit_line, sent_events, sent_races):
    """The server's own counts must equal what the clients sent and got.

    Events come from server_events_total: bqueue_batch_size is observed
    on both push and pop, so its sum counts every event twice."""
    problems = []
    if code != 0:
        problems.append(f"rd2 serve exit code {code}")
    stats = dict(re.findall(r"(\w+) (\d+)", exit_line))
    if stats.get("errors") != "0" or stats.get("busy") != "0":
        problems.append(f"server exit stats {exit_line.strip()!r}: want errors 0, busy 0")
    if int(stats.get("events", -1)) != sent_events:
        problems.append(f"exit stats events {stats.get('events')} != events sent {sent_events}")
    server_events = delta(after, before, "server_events_total")
    if server_events != sent_events:
        problems.append(f"server_events_total {server_events:.0f} != events sent {sent_events}")
    races = delta(after, before, "server_races_total")
    handed = (delta(after, before, "racedb_published_total")
              + delta(after, before, "racedb_dropped_total"))
    if not races == handed == sent_races:
        problems.append(f"racedb published + dropped {handed:.0f}, server_races_total "
                        f"{races:.0f} != races in replies {sent_races}")
    return problems


# ---------------------------------------------------------------------------
# check-dense, check-sparse, predict-contended
# ---------------------------------------------------------------------------


# Seconds `perfbench calibrate` takes on the host of WORKLOADS.md in a
# quiet phase. Outside load on a shared host slows every process by up
# to half, for seconds to minutes at a time; the wall-time metrics are
# divided by the speed the calibration measures next to them, so that
# they read as on this host when it is quiet.
CALIBRATE_S = 0.39


def host_speed():
    """How fast the host runs now: 1 in a quiet phase, less when slowed."""
    r = timed([PERFBENCH, "calibrate"], "calibrate")
    if r["code"] != 0:
        raise Failure(f"perfbench calibrate exited {r['code']}")
    return CALIBRATE_S / r["wall"]


def setup_times(cmd, n):
    walls = []
    for _ in range(n):
        r = timed(cmd, "setup")
        if r["code"] != 0:
            raise Failure(f"set-up probe {' '.join(cmd)} exited {r['code']}")
        walls.append(r["wall"])
    return walls


def offline_pass(workload, keys, ref, verdicts, tag):
    """One untraced pass of the workload's command over `keys`."""
    results = []
    for key in keys:
        path = input_path(key)
        if workload == "predict-contended":
            r = timed(predict_cmd(path), tag)
            got = parse_predict(read(r["out"]))
            bad = predict_matches(ref[key], got)
        else:
            r = timed(check_cmd(path), tag)
            got = parse_check(read(r["out"]))
            bad = check_matches(ref[key], got)
        verdicts.check(key, exit_problem(r) or bad)
        r["events"] = ref[key]["events"]
        r["verdict"] = got
        results.append(r)
    return results


def run_offline(workload, seed, seconds, ref):
    keys = run_inputs(workload, seed)
    for key in keys:
        input_path(key)
    probe = input_path(PROBES[workload])
    cmd = predict_cmd if workload == "predict-contended" else check_cmd
    setup = []
    verdicts = Verdicts()
    rounds = []
    speed = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        walls = setup_times(cmd(probe), SETUP_PER_ROUND)
        speed.append(host_speed())
        setup += [w * speed[-1] for w in walls]
        rounds.append(offline_pass(workload, keys, ref, verdicts, "timed"))
    if workload != "predict-contended":
        # The parallel path must give the same verdicts.
        for key in keys:
            r = timed(check_cmd(input_path(key), jobs=NPROC), "shard")
            bad = check_matches(ref[key], parse_check(read(r["out"])),
                                ["lines_md5", "fps_md5"])
            verdicts.check(f"{key} --jobs {NPROC}", exit_problem(r) or bad)
    runs = [r for rnd in rounds for r in rnd]
    events = sum(r["events"] for r in runs)
    # Every time is scaled by the host's speed in its round: a round's
    # throughput and each trace's latency are taken at the speed the
    # calibration just before it measured, then the median over rounds.
    walls = [sum(r["wall"] for r in rnd) for rnd in rounds]
    latency = [statistics.median(rnd[i]["wall"] * sp for rnd, sp in zip(rounds, speed))
               for i in range(len(keys))]
    log(f"host speed {statistics.median(speed):.3f}; unscaled "
        f"{statistics.median(events / len(rounds) / w for w in walls):.0f} events/s")
    metrics = {
        "events_per_s": statistics.median(
            events / len(rounds) / w / sp for w, sp in zip(walls, speed)),
        "alloc_words_per_event": sum(r["gc"].get("allocated_words", 0) for r in runs) / events,
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "session_latency_p50_s": percentile(latency, 0.5),
        "session_latency_p90_s": percentile(latency, 0.9),
        "setup_s": statistics.median(setup),
    }
    log(f"{len(rounds)} rounds, {len(runs)} verdicts over {keys}")
    return verdicts, metrics


def layer_rounds(rows):
    by_round = {}
    for row in rows:
        by_round.setdefault(row["round"], []).append(row)
    return list(by_round.values())


def run_offline_traced(workload, seed, seconds, ref):
    keys = run_inputs(workload, seed)
    paths = [input_path(k) for k in keys]
    key_of = dict(zip(paths, keys))
    verdicts = Verdicts()
    untraced = offline_pass(workload, keys, ref, verdicts, "untraced")
    mode = "predict" if workload == "predict-contended" else "check"
    cmd = [PERFBENCH, mode, "--seconds", str(seconds)]
    if mode == "check":
        cmd += ["--jobs", str(NPROC), "--out", os.path.join(WORK, "render.out")]
    r = subprocess.run(cmd + paths, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise Failure(f"perfbench {mode} failed: {r.stderr.strip()}")
    rows = [json.loads(line) for line in r.stdout.splitlines() if line.startswith("{")]
    for row in rows:
        key = key_of[row["file"]]
        want = ref[key]
        verdicts.reconcile(reconcile_traced(mode, row, want))
        if mode == "predict":
            verdicts.check(f"traced {key}", predict_matches(want, row))
        else:
            verdicts.check(f"traced {key}", check_matches(want, row))
            if "shard_lines_md5" in row:
                verdicts.check(f"traced {key} Shard.analyze jobs={NPROC}", check_matches(
                    want, {"events": row["shard_events"], "lines_md5": row["shard_lines_md5"],
                           "fps_md5": row["shard_fps_md5"]}, ["events", "lines_md5", "fps_md5"]))
    field = "witnessed" if mode == "predict" else "races"
    for key, u in zip(keys, untraced):
        traced = [row[field] for row in rows if key_of[row["file"]] == key]
        verdicts.reconcile(reconcile_race_counts(f"{key} {field}", traced, u["verdict"].get(field)))

    rounds = layer_rounds(rows)
    per = len(keys)

    def med(f):
        """Median over rounds of a per-verdict figure."""
        return statistics.median(f(rnd) for rnd in rounds)

    def tot(rnd, field):
        return sum(row.get(field, 0) for row in rnd)

    one = rounds[0]
    events = tot(one, "events")
    m = {name: 0.0 for name, _ in PER_LAYER}
    m["wire.decode_s"] = med(lambda rnd: tot(rnd, "wire_s") / per)
    m["wire.words_per_event"] = tot(one, "wire_w") / events
    if mode == "check":
        races = tot(one, "races")
        clean_mean = ratio(tot(one, "clean_w"), tot(one, "clean_calls"))
        m.update({
            "hb.step_s": med(lambda rnd: tot(rnd, "hb_s") / per),
            "hb.words_per_event": tot(one, "hb_w") / events,
            "apoint.translate_s": med(lambda rnd: tot(rnd, "translate_s") / per),
            "rd2.step_s": med(lambda rnd: tot(rnd, "rd2_s") / per),
            "rd2.words_per_event": tot(one, "rd2_w") / events,
            "rd2.lookups_per_action": ratio(tot(one, "rd2_lookups"), tot(one, "rd2_actions")),
            "rd2.same_epoch_ratio": ratio(tot(one, "rd2_same_epoch"), tot(one, "rd2_actions")),
            "rd2.races_per_event": races / events,
            # Words the race-closing calls allocate beyond a race-free call.
            "report.build_words_per_race": ratio(
                tot(one, "racy_w") - tot(one, "racy_calls") * clean_mean, races),
            "report.render_s": med(lambda rnd: tot(rnd, "render_s") / per),
            "report.render_bytes_per_race": ratio(tot(one, "render_bytes"), races),
            "report.fingerprint_s": med(lambda rnd: tot(rnd, "fingerprint_s") / per),
            "report.distinct_ratio": ratio(tot(one, "distinct"), races),
            "shard.analyze_s": tot(one, "shard_s") / per,
        })
    else:
        m.update({
            "report.fingerprint_s": med(lambda rnd: tot(rnd, "fingerprint_s") / per),
            "predict.analyze_s": med(lambda rnd: tot(rnd, "predict_s") / per),
            "predict.candidates": tot(one, "candidates") / per,
            "predict.closures": tot(one, "closures") / per,
            "predict.capped_ratio": ratio(tot(one, "capped"), tot(one, "candidates")),
        })
    m["gc.major_collections"] = statistics.mean(
        u["gc"].get("major_collections", 0) for u in untraced)
    m["gc.top_heap_words"] = max(u["gc"].get("top_heap_words", 0) for u in untraced)
    traced_round = med(lambda rnd: tot(rnd, "total_s"))
    untraced_round = sum(u["wall"] for u in untraced)
    m["trace.overhead_ratio"] = (traced_round - untraced_round) / untraced_round
    log(f"{len(rounds)} traced rounds over {keys}; untraced pass {untraced_round:.3f} s, "
        f"traced {traced_round:.3f} s")
    return verdicts, m


# ---------------------------------------------------------------------------
# serve-ingest
# ---------------------------------------------------------------------------

SERVE_DIR = os.path.join(WORK, "serve")
SOCK = os.path.join(SERVE_DIR, "s.sock")
METRICS_SOCK = os.path.join(SERVE_DIR, "m.sock")
RACEDB = os.path.join(SERVE_DIR, "racedb")


def unix_request(path, payload, timeout=30.0):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.settimeout(timeout)
        s.connect(path)
        if payload:
            s.sendall(payload)
        chunks = []
        while True:
            c = s.recv(65536)
            if not c:
                return b"".join(chunks)
            chunks.append(c)
    finally:
        s.close()


class Server:
    """One `rd2 serve` on a fresh racedb directory and socket."""

    def __init__(self, tag):
        shutil.rmtree(SERVE_DIR, ignore_errors=True)
        os.makedirs(SERVE_DIR)
        self.out = os.path.join(SERVE_DIR, f"{tag}.out")
        self.err = os.path.join(SERVE_DIR, f"{tag}.err")
        self.t0 = time.perf_counter()
        self.proc = spawn([RD2, "serve", "--addr", "unix:" + SOCK, "--racedb", RACEDB,
                           "--metrics", "unix:" + METRICS_SOCK], self.out, self.err)
        self.code = None
        self.rss_mb = None

    def wait_ready(self, timeout=60.0):
        """Seconds from launch until a HEALTH probe is answered."""
        while True:
            if self.proc.poll() is not None:
                raise Failure(f"rd2 serve exited early: {read(self.err).decode(errors='replace')}")
            try:
                if unix_request(SOCK, b"HEALTH\n").startswith(b"HEALTH"):
                    return time.perf_counter() - self.t0
            except (FileNotFoundError, ConnectionRefusedError, ConnectionResetError):
                pass
            if time.perf_counter() - self.t0 > timeout:
                raise Failure("rd2 serve did not become ready")
            time.sleep(0.0005)

    def metrics(self):
        text = unix_request(METRICS_SOCK, b"").decode()
        out = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                try:
                    out[name] = float(value)
                except ValueError:
                    pass
        return out

    def stop(self):
        if self.code is None:
            self.proc.send_signal(signal.SIGTERM)
            self.code, self.rss_mb = reap(self.proc)
        return self.code

    def kill(self):
        if self.code is None:
            self.proc.kill()
            self.code, self.rss_mb = reap(self.proc)


def serve_setup_times(n):
    """`n` set-up times of `rd2 serve`, each pair scaled by the host's
    speed measured right after it."""
    scaled = []
    walls = []
    for i in range(n):
        srv = Server("setup")
        try:
            walls.append(srv.wait_ready())
            # SIGTERM can beat the server's signal handler: either way
            # the probe only measures readiness.
            if srv.stop() not in (0, -signal.SIGTERM):
                raise Failure(f"rd2 serve exited {srv.code}")
        finally:
            srv.kill()
        if len(walls) == 2 or i == n - 1:
            speed = host_speed()
            scaled += [w * speed for w in walls]
            walls = []
    shutil.rmtree(SERVE_DIR, ignore_errors=True)
    return scaled


def run_serve(seed, seconds, ref, traced):
    keys = run_inputs("serve-ingest", seed)
    paths = [input_path(k) for k in keys]
    key_of = dict(zip(paths, keys))
    setup = [] if traced else serve_setup_times(SERVE_SETUP_REPEATS // 2)
    verdicts = Verdicts()
    # The offline oracle for every reply: `rd2 check -v` on the same trace.
    offline = {key: r["verdict"] for key, r in
               zip(keys, offline_pass("serve-ingest", keys, ref, verdicts, "offline"))}
    srv = Server("measured")
    try:
        srv.wait_ready()
        before = srv.metrics()
        cmd = [PERFBENCH, "load", "--addr", "unix:" + SOCK, "--threads", str(NPROC),
               "--seconds", str(seconds / SERVE_SEGMENTS),
               "--min-sessions", str(-(-MIN_SESSIONS // SERVE_SEGMENTS)), "--seed", str(seed)]
        if traced:
            cmd.append("--trace")
        # The load runs in segments with the host's speed measured before
        # each, as the offline rounds are.
        segments = []
        for _ in range(SERVE_SEGMENTS):
            speed = host_speed()
            r = subprocess.run(cmd + paths, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                               text=True)
            if r.returncode != 0:
                raise Failure(f"perfbench load failed: {r.stderr.strip()}")
            rows = [json.loads(line) for line in r.stdout.splitlines() if line.startswith("{")]
            elapsed = rows.pop()["elapsed_s"]
            segments.append({"sessions": rows, "elapsed": elapsed, "speed": speed})
        sessions = [s for seg in segments for s in seg["sessions"]]
        sent_events = sum(ref[key_of[s["file"]]]["events"] for s in sessions)
        sent_races = sum(s.get("races", 0) for s in sessions)
        # The publisher thread appends behind the replies: wait until the
        # racedb has taken every race handed to it.
        deadline = time.perf_counter() + 60
        while True:
            after = srv.metrics()
            handed = (delta(after, before, "racedb_published_total")
                      + delta(after, before, "racedb_dropped_total"))
            appended = delta(after, before, "racedb_append_total")
            if (handed >= sent_races and appended >= delta(after, before, "racedb_published_total")) \
                    or time.perf_counter() > deadline:
                break
            time.sleep(0.05)
        code = srv.stop()
    finally:
        srv.kill()
    exit_line = read(srv.out).decode()
    gc = gc_stats(srv.err)
    if not traced:
        setup += serve_setup_times(SERVE_SETUP_REPEATS - len(setup))
    shutil.rmtree(SERVE_DIR, ignore_errors=True)

    for s in sessions:
        key = key_of[s["file"]]
        if not s["ok"]:
            bad = [s.get("error")]
        else:
            bad = [f for f in ("events", "races", "lines_md5")
                   if s[f] != {"events": ref[key]["events"], "races": offline[key]["races"],
                               "lines_md5": offline[key]["lines_md5"]}[f]]
        verdicts.check(f"session {key}", bad)
    verdicts.reconcile(reconcile_serve(before, after, code, exit_line, sent_events, sent_races))
    server_events = delta(after, before, "server_events_total")
    handed = (delta(after, before, "racedb_published_total")
              + delta(after, before, "racedb_dropped_total"))

    n = len(sessions)
    elapsed = sum(seg["elapsed"] for seg in segments)
    log(f"{n} sessions over {len(keys)} traces in {elapsed:.2f} s; server: {exit_line.strip()}")
    if not traced:
        lat = [s["latency_s"] * seg["speed"] for seg in segments for s in seg["sessions"]]
        sp = statistics.median(seg["speed"] for seg in segments)
        log(f"host speed {sp:.3f}; unscaled {sent_events / elapsed:.0f} events/s")
        return verdicts, {
            # Little's law for the closed loop: NPROC clients, each with
            # one session in flight. Unlike events / elapsed, this does
            # not count the end of a segment, where one client waits for
            # the other's last reply.
            "events_per_s": NPROC * sent_events / sum(lat),
            "alloc_words_per_event": gc.get("allocated_words", 0) / server_events,
            "peak_rss_mb": srv.rss_mb,
            "session_latency_p50_s": percentile(lat, 0.5),
            "session_latency_p90_s": percentile(lat, 0.9),
            "setup_s": statistics.median(setup),
        }

    def hist_mean(name):
        return ratio(delta(after, before, name + "_sum"), delta(after, before, name + "_count"))

    traced_rows = [s for s in sessions if s["traced"]]
    plain_rows = [s for s in sessions if not s["traced"]]
    published = delta(after, before, "racedb_published_total")
    m = {name: 0.0 for name, _ in PER_LAYER}
    m.update({
        "server.handshake_s": hist_mean("server_handshake_seconds"),
        "server.analyze_s": hist_mean("server_analyze_seconds"),
        "server.session_s": hist_mean("server_session_seconds"),
        "client.stream_s": statistics.median(s["stream_s"] for s in traced_rows),
        "client.reply_wait_s": statistics.median(s["reply_wait_s"] for s in traced_rows),
        "racedb.append_s": delta(after, before, "racedb_append_seconds_sum") / n,
        "racedb.compact_s": delta(after, before, "racedb_compact_seconds_sum") / n,
        "racedb.dropped_ratio": ratio(delta(after, before, "racedb_dropped_total"), handed),
        "racedb.bytes_per_race": ratio(delta(after, before, "racedb_append_bytes_total"),
                                       delta(after, before, "racedb_append_total")),
        "gc.major_collections": gc.get("major_collections", 0),
        "gc.top_heap_words": gc.get("top_heap_words", 0),
        "trace.overhead_ratio": statistics.median(s["latency_s"] for s in traced_rows)
        / statistics.median(s["latency_s"] for s in plain_rows) - 1,
    })
    log(f"racedb: {published:.0f} published, {delta(after, before, 'racedb_compact_total'):.0f} "
        f"compactions")
    return verdicts, m


# ---------------------------------------------------------------------------
# Reference recording
# ---------------------------------------------------------------------------


def record_reference(workloads, path):
    ref = load_reference(path) if os.path.exists(path) else {}
    for workload in workloads:
        for key in corpus(workload):
            trace = input_path(key)
            if workload == "predict-contended":
                r = timed(predict_cmd(trace), "record")
                got = {k: v for k, v in parse_predict(read(r["out"])).items()
                       if k in PREDICT_FIELDS}
            else:
                r = timed(check_cmd(trace), "record")
                got = parse_check(read(r["out"]))
                par = parse_check(read(timed(check_cmd(trace, jobs=NPROC), "record")["out"]))
                if [par[f] for f in CHECK_FIELDS[3:]] != [got[f] for f in CHECK_FIELDS[3:]]:
                    raise Failure(f"{key}: --jobs {NPROC} disagrees with --jobs 1")
            if exit_problem(r):
                raise Failure(f"{key}: {exit_problem(r)}")
            ref[key] = got
            log(f"{key}: {got}")
    with open(path, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main():
    p = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="The RD2 benchmark. Prints one JSON line: correct, attempted, failed "
        "and every metric by name with its unit.",
        epilog="end-to-end metrics (--trace 0): "
        + ", ".join(f"{n} [{u}]" for n, u in END_TO_END)
        + ". per-layer metrics (--trace 1): "
        + ", ".join(f"{n} [{u}]" for n, u in PER_LAYER) + ".")
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, help="seed the run's inputs are drawn from")
    p.add_argument("--seconds", type=int, default=25, help="measuring time (default 25)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="1: traced run with per-layer metrics")
    p.add_argument("--reference", default=REFERENCE,
                   help=f"expected verdicts of the corpus (default {REFERENCE})")
    p.add_argument("--record-reference", action="store_true",
                   help="re-record the reference for the workload's corpus "
                   "(all workloads without --workload)")
    args = p.parse_args()
    if not args.record_reference and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    try:
        check_checkout()
        os.makedirs(WORK, exist_ok=True)
        build()
        if args.record_reference:
            record_reference([args.workload] if args.workload else WORKLOADS, args.reference)
            return 0
        ref = load_reference(args.reference)
        w, seed, secs = args.workload, args.seed, args.seconds
        if w == "serve-ingest":
            verdicts, metrics = run_serve(seed, secs, ref, traced=bool(args.trace))
        elif args.trace:
            verdicts, metrics = run_offline_traced(w, seed, secs, ref)
        else:
            verdicts, metrics = run_offline(w, seed, secs, ref)
    except Failure as e:
        log(f"error: {e}")
        return 1

    names = PER_LAYER if args.trace else END_TO_END
    if not args.trace:
        metrics["ok_ratio"] = ratio(verdicts.attempted - verdicts.failed, verdicts.attempted)
    correct = not verdicts.problems
    result = {
        "correct": correct,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }
    for n, u in names:
        log(f"{n:32s} {metrics[n]:.6g} {u}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
