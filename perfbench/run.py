"""Benchmark of the Gorenstein verifier, end to end and per layer.

    python3 perfbench/run.py --workload xn5-cold --seed 1 --seconds 15 --trace 0

Runs one workload (or ``all``) as a closed loop with one client: fresh
``python -m tautring.cli --format json ...`` children, one at a time, for
``--seconds`` seconds, importing tautring from this checkout's ``src``.
Every report is checked against golden values.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` untraced and traced children alternate
(see tracer.py) and the object holds the per-layer metrics.  Without
``--trace`` both passes run and the object holds every metric, keyed
``<workload>/<metric>``.  The exit code is 0 only if every child was
correct.  Workloads, metrics and the
layer-to-end-to-end map are described in perfbench/README.md.
"""

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")

#: exit code the CLI documents for each ``summary.status``
EXIT_CODES = {"pass": 0, "fail": 1, "size-guard": 3}
#: a child that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150
#: set-up probes per run; ``setup_s`` is their median
SETUP_PROBES = 15
MB = 1 << 20


@dataclass(frozen=True)
class Workload:
    """One CLI command, its cache state and the values its report must hold."""

    name: str
    argv: tuple
    golden: dict  # dotted report path -> exact expected value
    setup: str  # statements building the presentation(s) the command needs
    cache: str = ""  # "", "cold" (emptied before every child) or "warm"


XN5_GOLDEN = {
    "summary.status": "pass",
    "summary.verdict": "gorenstein",
    "summary.hilbert": [1, 15, 55, 55, 15, 1],
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("xn5-cold", ("xn", "check", "--n", "5"), XN5_GOLDEN,
                 "ring_for(xn_presentation(5))", cache="cold"),
        Workload("xn5-warm", ("xn", "check", "--n", "5"), XN5_GOLDEN,
                 "ring_for(xn_presentation(5))", cache="warm"),
        Workload("fm5-blocks", ("fm", "check", "--n", "5", "--mode", "blocks"),
                 {"summary.status": "pass",
                  "summary.rank_sums": [1, 31, 147, 147, 31, 1]},
                 "for k in range(1, 6):\n    ring_for(xn_presentation(k))"),
        Workload("fm4-bridge", ("bridge", "--n", "4"),
                 {"summary.status": "pass", "summary.lhs": "1/48",
                  "summary.rhs": "1/48", "summary.constant": "1/5760"},
                 "ring_for(fm_presentation(4))"),
    )
}

SETUP_PROBE = """\
import tautring.cli
from tautring.algebra import ring_for
from tautring.fm import fm_presentation
from tautring.xn import xn_presentation
{setup}
import json, tautring
print(json.dumps({{"tautring_file": tautring.__file__,
                  "kernel_backend": tautring.KERNEL_BACKEND}}))
"""


# ----- reports -----------------------------------------------------------


def parse_report(text):
    """Strict JSON: NaN and Infinity are rejected, not parsed."""

    def reject(token):
        raise ValueError(f"non-finite number {token} in report")

    return json.loads(text, parse_constant=reject)


def check_report(workload, exit_code, text):
    """(report or None, problems): strict JSON, exit code matching
    ``summary.status``, and every golden value of the workload."""
    try:
        report = parse_report(text)
    except ValueError as exc:
        return None, [f"exit code {exit_code}, report is not strict JSON: {exc}"]
    if not isinstance(report, dict):
        return None, [f"exit code {exit_code}, report is not a JSON object"]
    problems = []
    summary = report.get("summary")
    status = summary.get("status") if isinstance(summary, dict) else None
    if EXIT_CODES.get(status) != exit_code:
        problems.append(f"exit code {exit_code} does not match status {status!r}")
    for path, want in workload.golden.items():
        got = report
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        if got != want:
            problems.append(f"{path} is {got!r}, expected {want!r}")
    return report, problems


def report_body(report):
    """The deterministic part of a report (everything but ``timing``)."""
    return {k: v for k, v in report.items() if k != "timing"}


# ----- children ------------------------------------------------------------


def child_env(hash_seed):
    """Explicit environment: no TAUTRING_* settings, this checkout's src."""
    return {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": SRC,
        "PYTHONHASHSEED": str(hash_seed),
        "PYTHONUTF8": "1",
    }


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv, hash_seed, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion and reap it with ``os.wait4``, so that
    the peak RSS is this child's own (``RUSAGE_CHILDREN`` keeps a running
    maximum over every child reaped so far)."""
    os.makedirs(WORK, exist_ok=True)
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err, env=child_env(hash_seed), cwd=WORK)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as handle:
        stdout = handle.read()
    with open(err_path, encoding="utf-8", errors="replace") as handle:
        stderr = handle.read()
    return Child(proc.returncode, wall, usage.ru_maxrss / 1024, stdout, stderr)


def cli_argv(workload, cache_dir):
    argv = [sys.executable, "-m", "tautring.cli", "--format", "json"]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    return argv + list(workload.argv)


def in_src(path):
    return os.path.abspath(path).startswith(os.path.join(SRC, "tautring") + os.sep)


class Runner:
    """Runs children of one workload and keeps every outcome."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.cache_dir = os.path.join(WORK, "cache") if workload.cache else ""
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = []  # (Child, report) of untraced children
        self.setups = []  # wall seconds of set-up probes
        self.environment = None
        self.reference = None  # report body every later report must equal

    def fail(self, what, problems):
        """Count one failed child (or check) and keep what went wrong."""
        self.failed += 1
        self.problems.extend(f"{what}: {p}" for p in problems)

    def command(self, hash_seed, traced_to=None):
        """One CLI child, gated; returns (Child, report) or None."""
        if self.workload.cache == "cold":
            shutil.rmtree(self.cache_dir, ignore_errors=True)
        argv = cli_argv(self.workload, self.cache_dir)
        if traced_to:
            argv[1:3] = [os.path.join(HERE, "tracer.py"), traced_to, "--"]
        self.attempted += 1
        child = run_child(argv, hash_seed)
        report, problems = check_report(self.workload, child.code, child.stdout)
        if report is not None and self.reference is not None \
                and report_body(report) != self.reference:
            problems.append("report differs from the first report of this run")
        if problems:
            tail = child.stderr.strip().splitlines()[-1:]
            self.fail("traced child" if traced_to else "child", problems + tail)
            return None
        if self.reference is None:
            self.reference = report_body(report)
        return child, report

    def prepare(self):
        """Untimed: fill the warm cache (checked against a cold report) or
        run one warm-up child, so bytecode and file caches are ready."""
        shutil.rmtree(WORK, ignore_errors=True)
        first = self.command(self.seed)
        if first is None or self.workload.cache != "warm":
            return
        cold_checks = first[1]["checks"]
        self.reference = None  # the warm cache state changes the ``cache`` block
        warm = self.command(self.seed)
        if warm is not None and warm[1]["checks"] != cold_checks:
            self.fail("warm child", ["checks differ from the cold report's"])

    def setup_probe(self):
        self.attempted += 1
        code = SETUP_PROBE.format(setup=self.workload.setup)
        child = run_child([sys.executable, "-c", code], self.seed)
        try:
            env = json.loads(child.stdout) if child.code == 0 else None
        except ValueError:
            env = None
        if env is None or not in_src(env["tautring_file"]):
            tail = child.stderr.strip().splitlines()[-1:]
            self.fail("set-up probe", [f"exit {child.code}, imported {env}"] + tail)
            return
        self.environment = env
        self.setups.append(child.wall_s)

    def measure(self, seconds):
        """Untraced children until the deadline, with set-up probes at times
        drawn from the seed, spread over the whole window."""
        rng = random.Random(self.seed)
        start = time.perf_counter()
        deadline = start + seconds
        probe_at = sorted(start + rng.uniform(0, seconds) for _ in range(SETUP_PROBES))
        while True:
            now = time.perf_counter()
            while probe_at and probe_at[0] <= now:
                probe_at.pop(0)
                self.setup_probe()
            if now >= deadline and self.samples:
                break
            sample = self.command(self.seed)
            if sample is None and not self.samples:
                break
            if sample is not None:
                self.samples.append(sample)
        for _ in probe_at:
            self.setup_probe()

    def measure_traced(self, seconds):
        """Untraced and traced children alternate until the deadline, with at
        least two of each; the traced ones use two hash seeds in turn."""
        spans_path = os.path.join(WORK, "spans.json")
        traced = []
        order = random.Random(self.seed).random() < 0.5
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or len(traced) < 2 or len(self.samples) < 2:
            for step in ((True, False) if order else (False, True)):
                if step:
                    hash_seed = self.seed + len(traced) % 2
                    sample = self.command(hash_seed, traced_to=spans_path)
                    if sample is None:
                        return None
                    with open(spans_path, encoding="utf-8") as handle:
                        spans = json.load(handle)
                    if not in_src(spans["tautring_file"]):
                        self.fail("traced child", [f"imported {spans['tautring_file']}"])
                        return None
                    traced.append((sample[0], spans))
                else:
                    sample = self.command(self.seed)
                    if sample is None:
                        return None
                    self.samples.append(sample)
        return traced


# ----- metrics -------------------------------------------------------------


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def end_to_end(runner):
    walls = [child.wall_s for child, _ in runner.samples]
    rss = [child.peak_rss_mb for child, _ in runner.samples]
    return {
        "wall_s": walls,
        "peak_rss_mb": rss,
        "setup_s": runner.setups,
        "cache_mb": [(report["cache"] or {"total_bytes": 0})["total_bytes"] / MB
                     for _, report in runner.samples],
        "fail_rate": [runner.failed / runner.attempted],
    }


def per_layer(runner, traced):
    """Medians of the traced layer times; counts must agree exactly across
    every traced child, whichever hash seed it ran with."""
    layers = [tracer.layer_metrics(spans) for _, spans in traced]
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if isinstance(values[0], float):
            metrics[name] = statistics.median(values)
        elif len(set(values)) == 1:
            metrics[name] = values[0]
        else:
            runner.fail("steadiness", [f"{name} differs across hash seeds: {values}"])
            metrics[name] = values[0]
    untraced = statistics.median(child.wall_s for child, _ in runner.samples)
    metrics["cli.overhead_s"] = statistics.median(
        child.wall_s - report["timing"]["seconds"] for child, report in runner.samples)
    metrics["trace.overhead_s"] = statistics.median(
        child.wall_s for child, _ in traced) - untraced
    unpatched = sorted({u for _, spans in traced for u in spans["unpatched"]})
    return metrics, unpatched


# ----- output ---------------------------------------------------------------


def git_commit():
    """HEAD of this checkout, or None when it is not a git repository."""
    try:
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(workload, seed, seconds, trace, spec):
    """Measure one workload; print its tables and return the result object."""
    runner = Runner(workload, seed)
    print(f"== {workload.name}  seed {seed}  trace {trace}  {seconds:g} s  "
          f"{' '.join(workload.argv)}", flush=True)
    runner.prepare()
    metrics = {}
    if trace:
        traced = runner.measure_traced(seconds) if not runner.failed else None
        if traced:
            layer, unpatched = per_layer(runner, traced)
            runner.environment = {k: traced[0][1][k] for k in ("tautring_file", "kernel_backend")}
            if unpatched:
                print("not traced (absent or not patchable): " + ", ".join(unpatched))
            print(f"{'per-layer metric':<28}{'value':>16}  unit   ({len(traced)} traced, "
                  f"{len(runner.samples)} untraced children)")
            for m in spec["per_layer"]:
                value = layer.get(m["name"], 0)
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"{m['name']:<28}{value:>16.6g}  {m['unit']}")
    else:
        if not runner.failed:
            runner.measure(seconds)
        values = end_to_end(runner)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        units.update(cache_mb="MB", fail_rate="ratio")
        print(f"{'end-to-end metric':<18}{'median':>12}{'q1':>12}{'q3':>12}{'n':>6}  unit")
        for name, series in values.items():
            if not series:
                continue
            q1, med, q3 = quartiles(series)
            n = runner.attempted if name == "fail_rate" else len(series)
            print(f"{name:<18}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}{n:>6}  {units[name]}")
        for m in spec["end_to_end"]:
            if values[m["name"]]:
                metrics[m["name"]] = {"value": statistics.median(values[m["name"]]),
                                      "unit": m["unit"]}
    env = dict(runner.environment or {}, python=platform.python_version(),
               nproc=len(os.sched_getaffinity(0)), commit=git_commit(),
               hash_seeds=[seed, seed + 1] if trace else [seed])
    print("environment " + json.dumps(env, sort_keys=True))
    for problem in runner.problems:
        print("FAIL " + problem)
    expected = spec["per_layer" if trace else "end_to_end"]
    correct = runner.failed == 0 and len(metrics) == len(expected)
    return {"correct": correct, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics; omitted: both")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tautring", "cli.py")):
        sys.exit(f"no tautring sources under {SRC}: nothing to measure")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    passes = (0, 1) if args.trace is None else (args.trace,)
    results = []
    try:
        for name in names:
            for trace in passes:
                results.append((name, run_workload(WORKLOADS[name], args.seed,
                                                   args.seconds, trace, spec)))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        result = results[0][1]
    else:
        result = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{w}/{m}": v for w, r in results for m, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
