#!/usr/bin/env python3
"""End-to-end benchmark of the LCDA co-design studies.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds lcda_run and
the benchmark's own probe, lcda_perfbench (perfbench/probe.cpp), from
source into $CARGO_TARGET_DIR (default .bench_build); later runs reuse that
build.

Every workload is a closed loop: one client launches one study with the
shipped `lcda_run` command line, waits for it, checks its outputs and
launches the next. Each study is a cold pass with fresh store, checkpoint
and shard directories, then its rerun pass(es). All of them run under a
temporary root the benchmark owns (.bench_runs/ in the checkout), which is
removed at the end of the run. A run starts with one discarded warm-up
study: the same passes as the timed studies, checked like them.

--trace 0 prints the end-to-end metrics (medians over the run's studies):
  study_wall_s  wall time of the cold pass, output files included
  rerun_wall_s  wall time of rerunning the study against what the cold
                pass left behind: the filled store on baseline-store and
                trained-small; on lcda-aggregate and speedup-dist, which
                keep no store, the same study again
  setup_s       set-up before the first episode, timed in-process by the
                probe many times per run: scenario, evaluator, optimizer
                and LLM client, store open; on speedup-dist a whole
                distributed study of one 1-episode seed per worker (the
                worker-pool spawn)
  peak_rss_mb   a study's peak RSS: the highest RSS of any process of any
                of its passes (wait4), median over the run's studies. The
                highest over the whole run depended on how the seed threads
                happened to interleave in one pass and moved by 10%.
--trace 1 runs the same study untraced and then through the probe,
checks that both write byte-identical outputs, and prints the per-layer
split (medians over the run's traced studies) plus the tracing overhead.
--workload all runs every workload in turn, --seconds each, and keys each
metric of the final JSON line by its workload ("lcda-aggregate/setup_s").

A study fails on a nonzero exit or on outputs that do not match: the
digests of the run's other studies (the warm-up's included), the rerun's
outputs against the cold pass, and for seeds listed in
reference_digests.json the digests recorded at the commit that introduced
this benchmark. A failed study counts in "failed" and never as a timing.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_FILE = os.path.join(HERE, "reference_digests.json")

# Seeds with recorded reference digests: the default seed, and one held
# out so a later claim can be re-checked on a seed not used to write it.
DEFAULT_SEED = 1
HELD_OUT_SEED = 9973

MIN_SAMPLES = 3        # timed studies per run, even if --seconds is short
PASS_TIMEOUT_S = 40    # one invocation; the longest pass takes ~3 s
# A run must end within 180 s even when passes hang: past this many seconds
# after the build, every pass is killed at once and the run stops.
RUN_LIMIT_S = 150

STUDY_OUTPUTS = ["--json=study.json", "--trace=study.csv", "--quiet"]


@dataclass
class Workload:
    study: list           # lcda_run flags of the study (seed and paths added)
    store: bool = False   # --cache-dir shared by the cold pass and reruns
    checkpoint: bool = False  # the cold pass also checkpoints
    dist: bool = False    # distributed: shard dir, timeline and metrics files
    reruns: int = 1       # rerun passes per study


def workloads(size):
    """The four workloads at full size, or at a size small enough for the
    harness self-test. Sizes are fixed per workload so the work of a run
    does not depend on its seed.

    trained-small runs one LCDA episode: from the second episode on,
    whether the LLM repeats a design (a cache hit, no training) depends on
    the seed, which moved a 3-episode study between 2.6 and 4.5 s. The
    LLM's first design starts at one of the first three channel choices,
    picked by the seed, and doubles every two layers, all 3x3: 16-16-32-32,
    24-24-48-48 or 32-32-64-64 here, and training cost follows the widths.
    Listing 24 three times makes every seed start at 24, so every seed
    trains the middle of those designs."""
    tiny = size == "tiny"
    return {
        # The paper's method: LLM turns are ~99% of loop time.
        "lcda-aggregate": Workload(
            study=["--scenario=paper-energy", "--strategy=lcda,naive",
                   "--aggregate", f"--seeds={2 if tiny else 8}",
                   f"--episodes={10 if tiny else 200}", "--parallelism=2"]),
        # The non-LLM baselines: evaluation, search state, store writes and
        # checkpoints cold; every evaluation read back from the store warm.
        "baseline-store": Workload(
            study=["--scenario=paper-energy",
                   "--strategy=nacim,genetic,nsga2,annealing,random",
                   "--aggregate", f"--seeds={2 if tiny else 8}",
                   f"--episodes={200 if tiny else 5000}", "--parallelism=2"],
            store=True, checkpoint=True),
        # The faithful train-then-Monte-Carlo evaluator: nn, tensor, data and
        # noise kernels are ~100% of the time.
        "trained-small": Workload(
            study=["--scenario=trained-small", "--strategy=lcda",
                   "--episodes=1", "--parallelism=1",
                   "--set=space.channel_choices=[24,24,24,48]"]
                  + (["--set=trained.epochs=1"] if tiny else []),
            store=True, reruns=8),
        # The Table-1 speedup study over 2 resident workers with span tracing
        # and metrics export: the only dist and obs workload.
        "speedup-dist": Workload(
            study=["--scenario=paper-energy", "--speedup",
                   f"--seeds={4 if tiny else 256}", "--distribute=2",
                   "--parallelism=1", "--shard-dir=shards",
                   "--trace-spans=timeline.json", "--metrics-out=metrics.json"]
                  + (["--set=nacim_episodes=50"] if tiny else []),
            dist=True),
    }


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, build failure)."""


# ------------------------------------------------------------------ build

def build():
    """Builds lcda_run and the probe; returns their paths."""
    for need in ("CMakeLists.txt", "src", os.path.join("tools", "lcda_run.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no {need} under {ROOT}: run from a source checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "--target", "lcda_run",
           "lcda_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return (os.path.join(build_dir, "lcda", "lcda_run"),
            os.path.join(build_dir, "lcda_perfbench"))


def source_digest():
    """Digest of the sources the benchmark builds, recorded with each run
    because a checkout carries no commit id."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


# ---------------------------------------------------------------- processes

@dataclass
class Pass:
    kind: str = "study"   # "study" (the cold pass) or "rerun"
    cwd: str = ""
    wall_s: float = 0.0
    rss_mb: float = 0.0
    ok: bool = False
    error: str = ""
    digests: dict = field(default_factory=dict)
    payload: object = None   # JSON minus dist/obs/scenario, for cross-checks
    csv: bytes = b""
    metrics: dict = field(default_factory=dict)  # probe traces only


class Children:
    """The one child process group in flight, so a timeout or a signal can
    stop it (with every worker it spawned) and wait for it."""

    def __init__(self):
        self.pid = None
        self.deadline = float("inf")

    def past_deadline(self):
        return time.perf_counter() > self.deadline

    def kill(self):
        if self.pid is not None:
            try:
                os.killpg(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass


CHILDREN = Children()


def run_process(launcher, argv, cwd, env, stdout_path):
    """Runs argv to completion through the probe's `exec` launcher, in its
    own process group; returns (exit code, wall seconds, peak RSS MB of it
    and every descendant it waited for)."""
    report = os.path.join(cwd, "exec.json")
    with open(stdout_path, "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        proc = subprocess.Popen([launcher, "exec", report, "--"] + argv,
                                cwd=cwd, env=env, stdout=out, stderr=err,
                                start_new_session=True)
        CHILDREN.pid = proc.pid
        left = CHILDREN.deadline - time.perf_counter()
        timer = threading.Timer(max(0.1, min(PASS_TIMEOUT_S, left)), CHILDREN.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            CHILDREN.kill()  # stragglers of the group, if any
            CHILDREN.pid = None
    try:
        with open(report) as f:
            r = json.load(f)
        return r["exit_code"], r["wall_s"], r["maxrss_kb"] / 1024.0
    except (OSError, ValueError, KeyError):
        return proc.returncode or -1, 0.0, 0.0


def child_env(tmp_root):
    """The benchmark passes every engine knob on the command line, so no
    LCDA_* variable (parallelism, fault injection, scenario dirs) may leak
    in, and temporary files stay inside the run's own root."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("LCDA_")}
    tmp = os.path.join(tmp_root, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


# ------------------------------------------------------------ verification

def strip_json(doc):
    """lcda_run --json minus the non-reproducible "dist"/"obs" objects, as
    tools/diff_dist_json.py compares documents."""
    doc = dict(doc)
    doc.pop("dist", None)
    doc.pop("obs", None)
    return doc


def canonical_digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def payload_of(doc):
    """The part of a study document the cold pass and its reruns must
    agree on: no scenario echo (only the cold pass checkpoints, and the
    echo names the directory), no store-traffic counters (a rerun turns
    misses into persistent hits without changing a result)."""
    def drop(node):
        if isinstance(node, dict):
            return {k: drop(v) for k, v in node.items()
                    if k not in ("cache_misses", "persistent_hits")}
        if isinstance(node, list):
            return [drop(v) for v in node]
        return node
    doc = strip_json(doc)
    doc.pop("scenario", None)
    return drop(doc)


def check_outputs(p, cwd, dist):
    """Digests a pass's outputs and checks the distributed timeline."""
    try:
        with open(os.path.join(cwd, "study.json")) as f:
            doc = json.load(f)
        with open(os.path.join(cwd, "study.csv"), "rb") as f:
            p.csv = f.read()
    except (OSError, ValueError) as e:
        p.error = f"unreadable outputs: {e}"
        return
    p.digests = {"json": canonical_digest(strip_json(doc)),
                 "csv": hashlib.sha256(p.csv).hexdigest()}
    p.payload = payload_of(doc)
    if dist:
        check = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "check_trace_events.py"),
             "--min-pids=3", os.path.join(cwd, "timeline.json")],
            capture_output=True, text=True)
        if check.returncode != 0:
            p.error = "timeline check failed: " + check.stderr.strip()
            return
        try:
            with open(os.path.join(cwd, "metrics.json")) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            p.error = f"unreadable metrics file: {e}"
            return
    p.ok = True


def run_pass(launcher, argv, cwd, env, dist, traced=False, kind="study"):
    os.makedirs(cwd, exist_ok=True)
    p = Pass(kind=kind, cwd=cwd)
    stdout_path = os.path.join(cwd, "stdout.txt")
    code, p.wall_s, p.rss_mb = run_process(launcher, argv, cwd, env, stdout_path)
    if code != 0:
        with open(os.path.join(cwd, "stderr.txt"), errors="replace") as f:
            last = f.read()[-400:].strip()
        p.error = f"exit {code}: {last}"
        return p
    check_outputs(p, cwd, dist)
    if traced and p.ok:
        try:
            with open(stdout_path) as f:
                p.metrics = json.loads(f.read().strip().splitlines()[-1])
        except (OSError, ValueError, IndexError) as e:
            p.ok, p.error = False, f"no metrics from the probe: {e}"
    return p


# ------------------------------------------------------------------ studies

def pass_argv(w, seed, kind):
    argv = list(w.study) + [f"--seed={seed}"]
    if w.store:
        argv.append("--cache-dir=../cache")
    if w.checkpoint and kind == "study":
        argv.append("--checkpoint-dir=../ckpt")
    return argv + STUDY_OUTPUTS


class Run:
    def __init__(self, name, w, seed, lcda_run, probe, tmp_root, references):
        self.name, self.w, self.seed = name, w, seed
        self.lcda_run, self.probe = lcda_run, probe
        self.tmp_root = tmp_root
        self.env = child_env(tmp_root)
        self.reference = references.get(name, {}).get(str(seed))
        self.attempted = 0
        self.failed = 0
        self.first = {}  # pass kind -> first good Pass of the run

    def fail(self, what, error):
        self.failed += 1
        log(f"[perfbench] FAILED {what}: {error}")

    def accept(self, p, what):
        """Counts one study pass and checks it against the run's first
        pass of its kind, the cold pass and the recorded reference."""
        kind = p.kind
        self.attempted += 1
        if p.ok and kind in self.first:
            if p.digests != self.first[kind].digests:
                p.ok, p.error = False, f"{kind} outputs differ from the run's first {kind}"
        if p.ok and kind == "rerun" and "study" in self.first:
            cold = self.first["study"]
            if p.csv != cold.csv or p.payload != cold.payload:
                p.ok, p.error = False, "rerun outputs differ from the cold pass"
        if p.ok and self.reference is not None:
            if p.digests != self.reference.get(kind):
                p.ok, p.error = False, f"{kind} digests differ from the reference"
        if not p.ok:
            self.fail(what, p.error)
            return False
        self.first.setdefault(kind, p)
        return True

    def study(self, label, reruns, traced=False):
        """One study: the cold pass, then `reruns` reruns."""
        sample = os.path.join(self.tmp_root, label)
        shutil.rmtree(sample, ignore_errors=True)
        passes = []
        for i, kind in enumerate(["study"] + ["rerun"] * reruns):
            argv = pass_argv(self.w, self.seed, kind)
            if traced:
                argv = [self.probe, "trace"] + argv + [
                    f"--lcda-run={self.lcda_run}", "--spans-out=spans.csv"]
                if kind == "rerun":
                    argv.append("--replay-lookups")
            else:
                argv = [self.lcda_run] + argv
            cwd = os.path.join(sample, f"{kind}{i}")
            passes.append(run_pass(self.probe, argv, cwd, self.env, self.w.dist,
                                   traced, kind))
        return passes

    def warmup(self, reruns):
        """The discarded first study: checked, never timed."""
        passes = self.study("warmup", reruns)
        for p in passes:
            self.accept(p, f"warm-up {p.kind} pass")
        shutil.rmtree(os.path.join(self.tmp_root, "warmup"), ignore_errors=True)
        log(f"[perfbench] warm-up {sum(p.wall_s for p in passes):.3f} s (discarded)")

    def setup_samples(self, cold_dir):
        argv = [self.probe, "setup"] + pass_argv(self.w, self.seed, "study") + [
            f"--lcda-run={self.lcda_run}"]
        out = os.path.join(cold_dir, "setup.txt")
        code, _, _ = run_process(self.probe, argv, cold_dir, self.env, out)
        try:
            with open(out) as f:
                samples = json.loads(f.read().strip().splitlines()[-1])["samples"]
        except (OSError, ValueError, IndexError, KeyError):
            samples = []
        if code != 0 or not samples:
            self.fail("setup", f"probe exit {code}")
        return samples


def median(values):
    return statistics.median(values) if values else 0.0


def fmt_line(name, value, unit, how):
    return f"{name:<14} {value:>12.6g} {unit:<3} {how}"


def tail(values):
    """The highest percentile with at least ten samples beyond it, as
    "p<pct>=<value>", or the maximum when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return f"max={ordered[-1]:.6g}" if ordered else "max=-"
    return f"p{100.0 * (n - 10) / n:.3g}={ordered[n - 11]:.6g}"


def measure(run, seconds):
    """--trace 0: closed-loop studies for `seconds`, each followed by a
    burst of set-up samples against the store it left behind."""
    run.warmup(run.w.reruns)
    walls, rerun_walls, rss, setup, durations = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sample = f"s{len(durations)}"
        passes = run.study(sample, run.w.reruns)
        # Every pass is checked, so a failure anywhere drops the study.
        if all([run.accept(p, f"{p.kind} pass of study {len(durations) + 1}")
                for p in passes]):
            walls.append(passes[0].wall_s)
            rerun_walls += [p.wall_s for p in passes[1:]]
            rss.append(max(p.rss_mb for p in passes))
            setup += run.setup_samples(passes[0].cwd)
        shutil.rmtree(os.path.join(run.tmp_root, sample), ignore_errors=True)
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if CHILDREN.past_deadline() or len(durations) >= MIN_SAMPLES and (
                elapsed + statistics.mean(durations) > seconds or
                elapsed > 3 * seconds):
            break
    metrics = {
        "study_wall_s": (median(walls), "s",
                         f"median of n={len(walls)} cold passes, {tail(walls)}"),
        "rerun_wall_s": (median(rerun_walls), "s",
                         f"median of n={len(rerun_walls)} reruns, {tail(rerun_walls)}"),
        "setup_s": (median(setup), "s",
                    f"median of n={len(setup)} set-ups, {tail(setup)}"),
        "peak_rss_mb": (median(rss), "MB",
                        f"median of n={len(rss)} study peaks, {tail(rss)}"),
    }
    for name, (value, unit, how) in metrics.items():
        print(fmt_line(name, value, unit, how))
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


# Per-layer metrics taken from the rerun pass instead of the cold pass.
RERUN_LAYER_METRICS = {
    "surrogate.rerun_evals": "surrogate.evals",
    "core.rerun_loop_self_us": "core.loop_self_us",
    "store.lookup_us": "store.lookup_us",
    "store.hit_ratio": "store.hit_ratio",
    "store.bytes_read": "store.bytes_read",
    "store.open_us": "store.open_us",
}


def trace(run, seconds, per_layer):
    """--trace 1: untraced and traced studies in pairs; per-layer split."""
    reruns = 1 if run.w.store else 0  # the rerun metrics need a filled store
    run.warmup(reruns)
    values = {m["name"]: [] for m in per_layer}
    spans_dir = os.path.join(ROOT, ".bench_runs", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    start = time.perf_counter()
    pairs = 0
    while True:
        plain = run.study(f"u{pairs}", reruns)
        traced = run.study(f"t{pairs}", reruns, traced=True)
        pairs += 1
        ok = all([run.accept(p, f"untraced {p.kind} pass {pairs}") for p in plain])
        for t, u in zip(traced, plain):
            run.attempted += 1
            if t.ok and t.digests != u.digests:
                t.ok, t.error = False, "outputs differ from the untraced pass"
            if not t.ok:
                run.fail(f"traced {t.kind} pass {pairs}", t.error)
                ok = False
        if ok:
            layer = dict(traced[0].metrics)
            rerun = traced[1].metrics if reruns else {}
            for name, source in RERUN_LAYER_METRICS.items():
                layer[name] = rerun.get(source, 0)
            layer["trace.overhead_ratio"] = traced[0].wall_s / plain[0].wall_s
            for name in values:
                values[name].append(layer.get(name, 0))
            for t in traced:  # the benchmark's own spans of the last pair
                shutil.copyfile(os.path.join(t.cwd, "spans.csv"),
                                os.path.join(spans_dir, f"{run.name}-{t.kind}.csv"))
        for label in (f"u{pairs - 1}", f"t{pairs - 1}"):
            shutil.rmtree(os.path.join(run.tmp_root, label), ignore_errors=True)
        elapsed = time.perf_counter() - start
        if (elapsed * (pairs + 1) / pairs > seconds or elapsed > 3 * seconds
                or CHILDREN.past_deadline()):
            break
    out = {}
    for m in per_layer:
        value = median(values[m["name"]])
        print(fmt_line(m["name"], value, m["unit"],
                       f"median of n={len(values[m['name']])} traced studies"))
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def remove_stale_roots():
    """Deletes run roots left behind by benchmark processes that were
    killed before their own cleanup ran (the name ends in their pid)."""
    runs = os.path.join(ROOT, ".bench_runs")
    for entry in os.listdir(runs) if os.path.isdir(runs) else []:
        pid = entry.rsplit("-", 1)[-1]
        if not pid.isdigit():
            continue
        try:
            os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(os.path.join(runs, entry), ignore_errors=True)
        except PermissionError:
            pass


def record_references(names, size, path, lcda_run, probe):
    """Writes reference digests for DEFAULT_SEED and HELD_OUT_SEED."""
    refs = {}
    for name in names:
        w = workloads(size)[name]
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            tmp = os.path.join(ROOT, ".bench_runs", f"ref-{name}-{os.getpid()}")
            run = Run(name, w, seed, lcda_run, probe, tmp, {})
            digests = {}
            for p in run.study("ref", 1):
                if not run.accept(p, p.kind):
                    raise BenchError(f"{name} seed {seed}: {p.error}")
                digests[p.kind] = p.digests
            refs.setdefault(name, {})[str(seed)] = digests
            shutil.rmtree(tmp, ignore_errors=True)
            log(f"[perfbench] recorded {name} seed {seed}")
    with open(path, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring time per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the harness self-test's reduced studies")
    ap.add_argument("--reference-file",
                    help="reference digests (default: reference_digests.json "
                         "for the full size, none for tiny)")
    ap.add_argument("--record-references", action="store_true",
                    help="write digests for the default and held-out seeds "
                         "to --reference-file instead of measuring")
    args = ap.parse_args()

    table = workloads(args.size)
    names = list(table) if args.workload == "all" else [args.workload]
    if any(n not in table for n in names):
        ap.error(f"--workload must be all or one of {', '.join(table)}")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.reference_file is None and args.size == "full":
        args.reference_file = REFERENCE_FILE
    if args.record_references and args.reference_file is None:
        ap.error("--record-references at --size tiny needs --reference-file")

    signal.signal(signal.SIGTERM, lambda *_: (CHILDREN.kill(), sys.exit(143)))
    attempted = failed = 0
    metrics = {}
    try:
        lcda_run, probe = build()
        if args.record_references:
            record_references(names, args.size, args.reference_file, lcda_run, probe)
            return 0
        references = {}
        if args.reference_file and os.path.exists(args.reference_file):
            with open(args.reference_file) as f:
                references = json.load(f)
        remove_stale_roots()
        for name in names:
            CHILDREN.deadline = time.perf_counter() + RUN_LIMIT_S
            tmp_root = os.path.join(ROOT, ".bench_runs", f"{name}-{os.getpid()}")
            run = Run(name, table[name], args.seed, lcda_run, probe, tmp_root,
                      references)
            print(f"# perfbench workload={name} seed={args.seed} "
                  f"seconds={args.seconds:g} trace={args.trace} size={args.size} "
                  f"nproc={os.cpu_count()} commit={commit_id()} "
                  f"source={source_digest()} reference="
                  f"{'yes' if run.reference is not None else 'none'}", flush=True)
            try:
                if args.trace:
                    found = trace(run, args.seconds, spec["per_layer"])
                else:
                    found = measure(run, args.seconds)
            finally:
                shutil.rmtree(tmp_root, ignore_errors=True)
            attempted += run.attempted
            failed += run.failed
            # --workload all keys each metric by its workload.
            prefix = f"{name}/" if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in found.items()})
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
