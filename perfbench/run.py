"""hopfcheck benchmark: time CLI workloads end to end, or per layer with spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; the program under
test is the checkout's own `src/hopfcheck`, run in a fresh interpreter per
invocation.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 repeats passes over the workload's invocations for S seconds and
reports the end-to-end metrics: wall_s (median pass time), setup_s (median
start-up of `hopfcheck --version`, sampled around every pass) and
peak_rss_mb (median over passes of the largest child resident size).  The
two times are given at reference machine speed (see Runner).  --trace 1
runs the per-layer microbenchmarks, one untraced pass and one traced pass,
and reports the per-layer metrics.  Every report printed by every pass is
checked against the recorded references (check.py); `attempted` counts the
reports checked and `failed` the ones that were wrong or missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

sys.dont_write_bytecode = True

from check import expectations, load_reference, negative_controls  # noqa: E402
from spans import load as load_spans, self_times  # noqa: E402
from workloads import INVOCATION_LABELS, WORKLOADS, command  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 150

#: spans whose self time the traced run reports as <span>.self_s
SELF_TIME_SPANS = (
    "cdalg.mul_coeffs", "cdalg.zero_divisor_search", "sampling.sampler",
    "joinmul.join_mul_syn", "joinmul.join_mul_alg", "joinmul.filler_eval",
    "hopf.hopf_map", "checks.execute_check", "checks.evaluate",
    "cli.run", "cli.emit", "cli.main",
)
#: spans whose call count the traced run reports as <span>.calls
CALL_COUNT_SPANS = (
    "cdalg.mul_coeffs", "sampling.sampler", "joinmul.join_mul_syn",
    "joinmul.filler_eval", "hopf.hopf_map", "checks.execute_check",
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a trustworthy result."""


#: a fixed standard-library program (imports and Fraction and small-int
#: arithmetic, like hopfcheck's start-up and laws) that measures machine speed
CALIBRATION = (
    "import argparse, csv, dataclasses, hashlib, json, concurrent.futures\n"
    "from fractions import Fraction as F\n"
    "for i in range(1, 2500): x = F(i, i + 7) * F(3, i + 1) + F(1, i + 2)\n"
    "t = tuple(range(16))\n"
    "s = sum(sum(x * y for x, y in zip(t, t[::-1])) for _ in range(2000))\n"
)
#: CALIBRATION's wall time on the machine that recorded results/BENCH_seed.json
#: (2 cores, Python 3.11.7), in its quiet periods
CALIBRATION_REF_S = 0.09


@dataclass
class Child:
    exit_code: int
    stdout: bytes
    wall_s: float
    ref_s: float        # wall_s at reference machine speed
    rss_mb: float
    cpu_s: float


@dataclass
class Result:
    label: str
    child: Child
    attempted: int
    failed: int


def child_env() -> dict:
    """Environment for hopfcheck children: the checkout's sources, no seed override."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("HOPFCHECK_SEED", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def spawn(argv: list, env: dict, scratch: Path):
    """Run one child to completion: (exit code, stdout, wall s, max RSS MB, CPU s)."""
    with tempfile.TemporaryFile(dir=scratch) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code != 0:
            err.seek(0)
            sys.stderr.write(err.read().decode(errors="replace")[-2000:])
    return code, out, wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


class Runner:
    """Runs children one at a time and puts their wall times at reference speed.

    On the shared 2-core machine where the baseline was recorded, the same
    invocation's wall time drifted by up to 2x within minutes, and longer
    runs did not average the drift out.  So CALIBRATION runs in a fresh
    interpreter before and after every timed child, and a child's
    reference-speed time is wall_s * CALIBRATION_REF_S / (mean of those two
    calibration times).  The calibration does not use hopfcheck, so a change
    to the program moves reference-speed times exactly as it moves wall time.
    """

    def __init__(self, env: dict, scratch: Path):
        self.env = env
        self.scratch = scratch
        self.calibrations = []

    def _calibrate(self) -> float:
        code, _, wall, _, _ = spawn([sys.executable, "-c", CALIBRATION], self.env, self.scratch)
        if code != 0:
            raise BenchError("the calibration program failed")
        self.calibrations.append(wall)
        return wall

    def run(self, argv: list) -> Child:
        before = self.calibrations[-1] if self.calibrations else self._calibrate()
        code, out, wall, rss, cpu = spawn(argv, self.env, self.scratch)
        after = self._calibrate()
        return Child(code, out, wall, wall * 2 * CALIBRATION_REF_S / (before + after), rss, cpu)


def run_pass(workload, seed: int, expected: list, runner: Runner,
             trace_dir: Path = None) -> list:
    results = []
    for i, (inv, exp) in enumerate(zip(workload.invocations, expected)):
        args = command(inv, seed)
        if trace_dir is None:
            argv = [sys.executable, "-m", "hopfcheck.cli"] + args
        else:
            argv = [sys.executable, str(HERE / "trace_cli.py"),
                    str(trace_dir / f"inv{i}"), str(i), "--"] + args
        child = runner.run(argv)
        results.append(Result(inv.label, child, exp.size,
                              exp.mismatches(child.exit_code, child.stdout)))
    return results


def probe(env: dict, scratch: Path):
    """Check that children import hopfcheck from this checkout."""
    code, out, _, _, _ = spawn(
        [sys.executable, "-c", "import hopfcheck.cli; print(hopfcheck.cli.__file__)"],
        env, scratch)
    where = Path(out.decode().strip() or "/").resolve()
    if code != 0 or SRC.resolve() not in where.parents:
        raise BenchError(f"hopfcheck imported from {where}, not from {SRC}")


def setup_runs(runner: Runner) -> list:
    """Fresh interpreters importing hopfcheck.cli and running main (--version)."""
    children = [runner.run([sys.executable, "-m", "hopfcheck.cli", "--version"])
                for _ in range(SETUP_REPEATS)]
    if any(c.exit_code != 0 for c in children):
        raise BenchError("hopfcheck --version failed")
    return children


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit or "unknown", "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


def end_to_end(workload, seed: int, seconds: int, expected: list, runner: Runner):
    # set-up is sampled before every pass, so that its median spans the whole run
    setup = []
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        setup += setup_runs(runner)
        passes.append(run_pass(workload, seed, expected, runner))
    setup += setup_runs(runner)

    def pass_median(field):
        return statistics.median(sum(getattr(r.child, field) for r in p) for p in passes)

    print(json.dumps({"raw": {
        "wall_s": pass_median("wall_s"),
        "setup_s": statistics.median(c.wall_s for c in setup),
        "calibration_s": statistics.fmean(runner.calibrations)}}))
    metrics = {
        "wall_s": (pass_median("ref_s"), "s"),
        "setup_s": (statistics.median(c.ref_s for c in setup), "s"),
        "peak_rss_mb": (statistics.median(max(r.child.rss_mb for r in p) for p in passes),
                        "MB"),
    }
    return metrics, [r for p in passes for r in p]


def micro_metrics(env: dict, scratch: Path) -> dict:
    code, out, _, _, _ = spawn([sys.executable, str(HERE / "micro.py")], env, scratch)
    if code != 0:
        raise BenchError("microbenchmarks failed their self-checks")
    return json.loads(out.decode().strip().splitlines()[-1])


def layer_metrics(workload, trace_dir: Path) -> dict:
    """Per-layer counts and self times summed over the traced invocations."""
    stats = {}
    counters = {}
    checks = []
    evaluated_by_check = {}
    for i in range(len(workload.invocations)):
        header, spans = load_spans(trace_dir / f"inv{i}")
        for name, entry in self_times(spans).items():
            acc = stats.setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += entry["calls"]
            acc["self_s"] += entry["self_s"]
        for name, value in header["counters"].items():
            counters[name] = counters.get(name, 0) + value
        for _, name, parent, _, _ in spans:
            if name == "checks.evaluate":
                evaluated_by_check[(i, parent)] = evaluated_by_check.get((i, parent), 0) + 1
        checks += [(i, sid, workers, status) for sid, workers, status in header["checks"]]

    def calls(span):
        return stats.get(span, {}).get("calls", 0)

    def self_s(span):
        return stats.get(span, {}).get("self_s", 0.0)

    for span in workload.required_spans + ("checks.execute_check", "cli.main"):
        if calls(span) == 0:
            raise BenchError(f"traced run recorded no call of {span} on {workload.name}; "
                             "a binding site bypasses the wrapper")

    structured = counters.get("checks.inputs.structured", 0)
    failing = [(i, sid) for i, sid, _, status in checks if status == "fails"]
    m = {}
    for span in CALL_COUNT_SPANS:
        m[f"{span}.calls"] = (calls(span), "count")
    for span in SELF_TIME_SPANS:
        m[f"{span}.self_s"] = (self_s(span), "s")
    m["cdalg.structured_tuples.emitted"] = (
        counters.get("cdalg.structured_tuples.emitted", 0), "count")
    m["spheremodel.JoinPoint.built"] = (calls("spheremodel.JoinPoint.check"), "count")
    m["spheremodel.JoinPoint.check_s"] = (self_s("spheremodel.JoinPoint.check"), "s")
    m["checks.execute_check.workers_max"] = (max(c[2] for c in checks), "count")
    m["checks.inputs.structured"] = (structured, "count")
    m["checks.inputs.sampled"] = (calls("checks.evaluate") - structured, "count")
    m["checks.witnesses"] = (len(failing), "count")
    m["checks.witness_scan_inputs"] = (
        sum(evaluated_by_check.get(key, 0) for key in failing), "count")
    return m


def per_layer(workload, seed: int, expected: list, runner: Runner):
    metrics = micro_metrics(runner.env, runner.scratch)
    plain = run_pass(workload, seed, expected, runner)
    trace_dir = runner.scratch / "trace"
    trace_dir.mkdir()
    traced = run_pass(workload, seed, expected, runner, trace_dir=trace_dir)
    metrics.update(layer_metrics(workload, trace_dir))

    walls = {r.label: r.child.wall_s for r in plain}
    for label in INVOCATION_LABELS:
        metrics[f"cli.{label}.wall_s"] = (walls.get(label, 0.0), "s")
    metrics["cli.cpu_s"] = (sum(r.child.cpu_s for r in plain), "s")
    plain_wall = sum(r.child.wall_s for r in plain)
    traced_wall = sum(r.child.wall_s for r in traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    results = plain + traced
    metrics["mismatch_share"] = (
        sum(r.failed for r in results) / sum(r.attempted for r in results), "share")
    return metrics, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hopfcheck" / "cli.py").is_file():
        print(f"perfbench: no hopfcheck sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = expectations(load_reference(workload.name), args.seed)
    missed = negative_controls(expected)
    if missed:
        print(f"perfbench: correctness gate accepts bad output: {missed}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        env = child_env()
        probe(env, scratch)
        print(json.dumps({"meta": metadata(workload.name, args.seed, args.seconds,
                                           args.trace)}), flush=True)
        runner = Runner(env, scratch)
        if args.trace:
            metrics, results = per_layer(workload, args.seed, expected, runner)
        else:
            metrics, results = end_to_end(workload, args.seed, args.seconds, expected,
                                          runner)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(names) != sorted(metrics):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(names))} are not declared "
              "as in BENCHMARK.json", file=sys.stderr)
        return 1
    for r in results:
        c = r.child
        print(json.dumps({"invocation": r.label, "exit": c.exit_code, "wall_s": c.wall_s,
                          "ref_s": c.ref_s, "rss_mb": c.rss_mb, "cpu_s": c.cpu_s,
                          "failed": r.failed, "attempted": r.attempted}))
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
