#!/usr/bin/env python3
"""qsiegel benchmark: closed-loop streams of `qsiegel` CLI requests.

    python3 perfbench/run.py --workload expand-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout.  One client sends one request at a
time; every request is a fresh interpreter running the `qsiegel` entry point
on the checkout's `src/`, and every output is checked: `expand` stdout
against the sha256 digests in `golden.json`, `verify` stdout for a final
PASS line.  The last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the lines before it give every metric by
name with its unit.  With `--trace 1` each request runs plain and then under
`tracer.py`, and the metrics are the per-layer ones from `layers.py` plus the
tracing overhead.  See README.md for the workloads and the baseline.
"""
import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
GOLDEN = os.path.join(HERE, "golden.json")

# The body of the installed `qsiegel` console script.
CLI = "import sys; from qsiegel.cli import main; sys.exit(main())"
PROBE = "import qsiegel.cli"

# One pass of any workload, set-up included, took about this long on the
# 2-CPU box where the benchmark was defined; --seconds buys whole passes, so
# both sides of a comparison always do the same work.
PASS_SECONDS = 30
RUN_DEADLINE_S = 170
IMPORT_PROBES = 15
CACHE_FILLS = 3

# Forms that one cold `expand` computes as a single batch, so every form of
# a batch costs the same at a given precision.
BATCHES = {
    "eisenstein": ("E2", "E4", "E6", "E8", "E10",
                   "phi2", "phi4", "phi6", "phi8", "phi10"),
    "chi5": ("chi5a", "chi5b"),
    "deep": ("chi15", "delta20a", "delta20b"),
}
FORMS = sum(BATCHES.values(), ())
FORMATS = ("csv", "json")
# expand exits 2 ("no rows") for these cells by design; they are not drawn.
NO_ROWS = {("delta20a", 5), ("delta20a", 6), ("delta20b", 5), ("delta20b", 6)}

# Stratified designs: each pass has these (batch, prec) cost classes; the
# seed draws the form in each batch, the format and the order.  The
# precisions cover 8..14 evenly; the deep batch takes 8, 11 and 14 so that
# one pass holds the 13 s chi15/delta20 build at prec 14.
COLD_PRECS = range(8, 15)
COLD_DESIGN = ([("eisenstein", p) for p in COLD_PRECS]
               + [("chi5", 10), ("chi5", 13)]
               + [("deep", 8), ("deep", 11), ("deep", 14)])
CACHED_PRECS = range(5, 13)
# verify: the structure request at prec 8 or 9 (seeded) is the recorded
# false FAIL below; the others pass.
VERIFY_FIXED = (("tables", 10), ("structure", 11), ("relations", 12), ("dims", None))
VERIFY_KMAX = 20

# Known false FAIL: at prec 8 and 9 `verify --suite structure` never raises
# the precision of its augmentation checks, so w20_five_generators gets rank
# 21 / 24 where 26 is true, and exits 1.  It counts as failed, not as wrong.
KNOWN_FALSE_FAIL_PRECS = (8, 9)
KNOWN_FALSE_FAIL_CHECKS = {"w20_five_generators", "w20_with_deltas"}

OK, KNOWN, WRONG = "ok", "known-false-fail", "wrong"

Request = namedtuple("Request", "args key")
Result = namedtuple("Result", "request seconds code stdout rss_mb")

END_TO_END = (("wall_s", "s"), ("req_p50_s", "s"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


class BenchError(Exception):
    """The run cannot produce a result (missing program, deadline passed)."""


# ---------------------------------------------------------------- requests

def expand_request(form, prec, fmt):
    return Request(("expand", "--form", form, "--prec", str(prec), "--format", fmt),
                   ("expand", form, prec, fmt))


def verify_request(suite, prec):
    args = ("verify", "--suite", suite)
    if prec is not None:
        args += ("--prec", str(prec), "--kmax", str(VERIFY_KMAX))
    return Request(args, ("verify", suite, prec))


def make_requests(workload, seed):
    """The pass of `workload` for `seed`; the same seed gives the same list."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "expand-cold":
        reqs = [expand_request(rng.choice(BATCHES[batch]), prec, rng.choice(FORMATS))
                for batch, prec in COLD_DESIGN]
    elif workload == "expand-cached":
        reqs = [expand_request(form, prec, rng.choice(FORMATS))
                for form in FORMS for prec in CACHED_PRECS
                if (form, prec) not in NO_ROWS]
    elif workload == "verify":
        reqs = [verify_request("structure", rng.choice(KNOWN_FALSE_FAIL_PRECS))]
        reqs += [verify_request(suite, prec) for suite, prec in VERIFY_FIXED]
    else:
        raise ValueError("unknown workload %r" % (workload,))
    rng.shuffle(reqs)
    return reqs


def golden_key(form, prec, fmt):
    return "%s %d %s" % (form, prec, fmt)


def golden_cells():
    """Every (form, prec, format) either expand workload can draw."""
    precs = sorted(set(COLD_PRECS) | set(CACHED_PRECS))
    return [(form, prec, fmt) for form in FORMS for prec in precs for fmt in FORMATS
            if (form, prec) not in NO_ROWS]


def classify(request, code, stdout, golden):
    """OK, KNOWN (the recorded false FAIL) or WRONG for one finished request."""
    kind = request.key[0]
    if kind == "expand":
        want = golden.get(golden_key(*request.key[1:]))
        got = hashlib.sha256(stdout).hexdigest()
        return OK if code == 0 and got == want else WRONG
    suite, prec = request.key[1:]
    lines = stdout.decode("utf-8", "replace").splitlines()
    last = lines[-1] if lines else ""
    if code == 0 and last == "verify %s: PASS" % suite:
        return OK
    failing = {ln.split(":", 1)[0] for ln in lines[:-1] if ln.endswith(" FAIL")}
    if (suite == "structure" and prec in KNOWN_FALSE_FAIL_PRECS and code == 1
            and last == "verify structure: FAIL"
            and failing and failing <= KNOWN_FALSE_FAIL_CHECKS):
        return KNOWN
    return WRONG


# ---------------------------------------------------------------- processes

class Runner:
    """Spawns request processes one at a time inside the run's work dir."""

    def __init__(self, work, deadline):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("QSIEGEL_CACHE_DIR", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
        self.count = 0

    def spawn(self, argv):
        """Run argv to exit; return (seconds, exit code, stdout, max RSS MB)."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        self.count += 1
        out_path = os.path.join(self.work, "out.%d" % self.count)
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)
            killer = threading.Timer(left, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = time.perf_counter() - t0
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        if time.monotonic() >= self.deadline:
            raise BenchError("run deadline passed during %s" % " ".join(argv[-6:]))
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        os.remove(out_path)
        return seconds, proc.returncode, stdout, usage.ru_maxrss / 1024.0

    def request(self, req, cache_dir=None, trace_path=None):
        args = (["--cache-dir", cache_dir] if cache_dir else []) + list(req.args)
        if trace_path:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), trace_path, "--"] + args
        else:
            argv = [sys.executable, "-c", CLI] + args
        seconds, code, stdout, rss = self.spawn(argv)
        return Result(req, seconds, code, stdout, rss)

    def import_probe(self):
        return self.spawn([sys.executable, "-c", PROBE])[0]


# ---------------------------------------------------------------- workloads

def fill_cache(runner, name, trace_dir=None):
    """Set-up of expand-cached: one `expand --form chi15 --prec 12` into a
    fresh cache dir writes the records of all 15 forms."""
    cache_dir = os.path.join(runner.work, name)
    req = expand_request("chi15", 12, "csv")
    trace_path = os.path.join(trace_dir, "fill.json") if trace_dir else None
    return cache_dir, runner.request(req, cache_dir, trace_path)


def dir_bytes(path):
    if not path or not os.path.isdir(path):
        return 0
    return sum(os.path.getsize(os.path.join(path, n)) for n in os.listdir(path))


def run_workload(workload, seed, seconds, trace, golden, runner):
    reqs = make_requests(workload, seed)
    passes = max(1, round(seconds / PASS_SECONDS))
    checked = []  # every Result whose output is checked
    cached = workload == "expand-cached"

    if cached:
        fills = [fill_cache(runner, "cache%d" % i) for i in range(1 if trace else CACHE_FILLS)]
        for extra, _ in fills[1:]:
            shutil.rmtree(extra)
        cache_dir = fills[0][0]
        setup = [res.seconds for _, res in fills]
        checked += [res for _, res in fills]
    else:
        cache_dir = None
        runner.import_probe()  # compiles the bytecode once; users run installed .pyc
        setup = [runner.import_probe() for _ in range(0 if trace else IMPORT_PROBES)]

    trace_dir = traced_cache = None
    setup_files = []
    if trace:
        # Each request runs plain and then traced, back to back, so that drift
        # in the machine's speed falls on both sides of trace.overhead_s.
        trace_dir = os.path.join(runner.work, "trace")
        os.makedirs(trace_dir)
        if cached:
            traced_cache, fill = fill_cache(runner, "cache-traced", trace_dir)
            checked.append(fill)
            setup_files.append(os.path.join(trace_dir, "fill.json"))

    walls, stream, traced, trace_files = [], [], [], []
    for p in range(passes):
        t0 = time.perf_counter()
        for i, req in enumerate(reqs):
            stream.append(runner.request(req, cache_dir))
            if trace:
                trace_files.append(os.path.join(trace_dir, "%d-%04d.json" % (p, i)))
                traced.append(runner.request(req, traced_cache, trace_files[-1]))
        walls.append(time.perf_counter() - t0)
    checked += stream + traced

    layer_metrics = None
    if trace:
        layer_metrics = layers.aggregate([layers.load(f) for f in trace_files],
                                         [layers.load(f) for f in setup_files])
        layer_metrics["cli.cache_bytes"] = dir_bytes(traced_cache)
        layer_metrics["trace.overhead_s"] = (sum(r.seconds for r in traced)
                                             - sum(r.seconds for r in stream))

    outcomes = [classify(r.request, r.code, r.stdout, golden) for r in checked]
    failed = sum(o != OK for o in outcomes)
    summary = {
        "workload": workload,
        "passes": passes,
        "requests": len(reqs),
        "attempted": len(outcomes),
        "failed": failed,
        "known_false_fails": outcomes.count(KNOWN),
        "wrong": [" ".join(r.request.args) for r, o in zip(checked, outcomes) if o == WRONG],
        "wall_s": statistics.median(walls),
        "req_p50_s": statistics.median(r.seconds for r in stream),
        "peak_rss_mb": max(r.rss_mb for r in stream),
        "setup_s": statistics.median(setup) if setup else None,
        "failed_ratio": failed / len(outcomes),
    }
    return summary, layer_metrics


def report(summary, layer_metrics, seed):
    """Human-readable lines, then the result JSON as the last line."""
    print("workload %s seed %d: %d requests x %d pass(es), %d checked, %d failed "
          "(%d known false FAIL)" % (summary["workload"], seed, summary["requests"],
                                     summary["passes"], summary["attempted"],
                                     summary["failed"], summary["known_false_fails"]))
    for args in summary["wrong"]:
        print("  WRONG OUTPUT: qsiegel %s" % args)
    if layer_metrics is None:
        metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
        print("  wall_s %.4f s" % summary["wall_s"])
        print("  req_p50_s %.4f s (n=%d)" % (summary["req_p50_s"],
                                              summary["requests"] * summary["passes"]))
        print("  peak_rss_mb %.1f MB" % summary["peak_rss_mb"])
        print("  setup_s %.4f s" % summary["setup_s"])
    else:
        metrics = {name: {"value": layer_metrics[name], "unit": unit}
                   for name, unit in layers.METRICS}
        for name, unit in layers.METRICS:
            print("  %s %s %s" % (name, layer_metrics[name], unit))
    print("  failed_ratio %.4f fraction (%d/%d)" % (summary["failed_ratio"],
                                                   summary["failed"], summary["attempted"]))
    print(json.dumps({"correct": not summary["wrong"], "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}), flush=True)


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("expand-cold", "expand-cached", "verify", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=PASS_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qsiegel", "cli.py")):
        print("error: no qsiegel source under %s" % SRC, file=sys.stderr)
        return 2
    if not os.path.isfile(GOLDEN):
        print("error: missing %s" % GOLDEN, file=sys.stderr)
        return 2
    golden = load_golden()
    workloads = (("expand-cold", "expand-cached", "verify") if args.workload == "all"
                 else (args.workload,))
    work = os.path.join(WORK, "run-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)  # left by a killed run with this pid
    os.makedirs(work)
    try:
        for workload in workloads:
            runner = Runner(work, time.monotonic() + RUN_DEADLINE_S)
            summary, layer_metrics = run_workload(workload, args.seed, args.seconds,
                                                  args.trace, golden, runner)
            report(summary, layer_metrics, args.seed)
            for name in os.listdir(work):
                path = os.path.join(work, name)
                shutil.rmtree(path) if os.path.isdir(path) else os.remove(path)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    return 0


if __name__ == "__main__":
    sys.exit(main())
