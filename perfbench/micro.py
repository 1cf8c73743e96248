"""Per-layer microbenchmarks of hopfcheck, each checked before it may post a time.

    python3 perfbench/micro.py            # print {metric: [value, unit]} as JSON
    python3 perfbench/micro.py --record   # rewrite reference/micro.json

Run with the checkout's `src` on PYTHONPATH (run.py does this).  Inputs are
fixed (drawn from `random.Random` with fixed keys, or from the program's own
counter-based sampler at fixed indices) and shaped like the workloads'
inputs.  Every timing first checks its outputs: kernel and sampler outputs
against the values recorded at the seed commit (reference/micro.json),
join_mul_syn against join_mul_alg on the same inputs, and filler points
and Hopf images for unit norm.  A failed check exits 1 without printing
any time.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

from hopfcheck import checks, cli, hopf, joinmul, sampling
from hopfcheck.cdalg import mul_coeffs, norm_coeffs
from hopfcheck.laws import imaginaroid_instance
from hopfcheck.sampling import CounterRng
from hopfcheck.spheremodel import JoinPoint, SpherePoint

REFERENCE = Path(__file__).resolve().parent / "reference" / "micro.json"

N_INPUTS = 16
REPEATS = 5
MIN_SAMPLE_S = 0.01
FLOAT_REL = 1e-9


class CheckFailed(Exception):
    """A microbenchmark's output is not what it must be."""


def timed(fn, inputs, per=1) -> float:
    """Median microseconds per item of fn(*input) over `inputs`, `per` items per input."""
    def sample(loops):
        start = time.perf_counter()
        for _ in range(loops):
            for args in inputs:
                fn(*args)
        return time.perf_counter() - start

    loops = 1
    while (first := sample(loops)) < MIN_SAMPLE_S:
        loops *= 2
    samples = [first] + [sample(loops) for _ in range(REPEATS - 1)]
    return statistics.median(samples) / (loops * len(inputs) * per) * 1e6


# -- serialization of recorded outputs -----------------------------------------


def encode(x):
    if isinstance(x, (tuple, list)):
        return [encode(v) for v in x]
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, float):
        return x
    return str(x)


def same(got, want) -> bool:
    """Exact values must match exactly; floats to a relative 1e-9."""
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(
            same(g, w) for g, w in zip(got, want))
    if isinstance(want, float):
        return isinstance(got, float) and abs(got - want) <= FLOAT_REL * max(1.0, abs(want))
    return got == want


def require(ok: bool, what: str):
    if not ok:
        raise CheckFailed(what)


# -- inputs ---------------------------------------------------------------------


def two_term(rng: random.Random, n: int) -> tuple:
    """Signed two-term sum e_i +- e_j with int coefficients, as structured inputs are."""
    i, j = rng.sample(range(n), 2)
    c = [0] * n
    c[i], c[j] = rng.choice((1, -1)), rng.choice((1, -1))
    return tuple(c)


def dense(rng: random.Random, n: int, kind: str) -> tuple:
    if kind == "fraction":
        return tuple(Fraction(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(n))
    return tuple(rng.uniform(-10.0, 10.0) for _ in range(n))


def kernel_inputs(level: int, kind: str) -> list:
    rng = random.Random(f"perfbench/mul_coeffs/L{level}/{kind}")
    n = 1 << level
    if kind == "int":
        return [(two_term(rng, n), two_term(rng, n)) for _ in range(N_INPUTS)]
    return [(dense(rng, n, kind), dense(rng, n, kind)) for _ in range(N_INPUTS)]


def join_points(mode: str, view: str) -> list:
    inst = imaginaroid_instance("s2")
    return [(joinmul.sample_join_point(CounterRng(0, f"perfbench/join/{view}/{mode}", i),
                                       inst, view, mode),)
            for i in range(N_INPUTS)]


# -- the microbenchmarks --------------------------------------------------------


def bench(recorded: dict, record: bool) -> dict:
    metrics = {}
    outputs = {}

    def check_recorded(name: str, values):
        outputs[name] = encode(values)
        if not record:
            require(same(outputs[name], recorded.get(name)), f"{name} differs from the seed commit")

    # kernel per level and scalar type
    for level in (2, 3, 4):
        for kind in ("int", "fraction", "float"):
            name = f"cdalg.mul_coeffs.L{level}.{kind}_us"
            inputs = kernel_inputs(level, kind)
            check_recorded(name, [mul_coeffs(a, b) for a, b in inputs])
            metrics[name] = (timed(mul_coeffs, inputs), "us")

    # samplers
    rngs = [(i,) for i in range(N_INPUTS)]

    def coeffs(i):
        return sampling.rand_coeffs(CounterRng(0, "perfbench/rand_coeffs", i), 8, "exact")

    check_recorded("sampling.rand_coeffs.L3.exact_us", [coeffs(i) for (i,) in rngs])
    metrics["sampling.rand_coeffs.L3.exact_us"] = (timed(coeffs, rngs), "us")
    for mode in ("exact", "float"):
        def unit(i, mode=mode):
            return sampling.rand_unit(CounterRng(0, f"perfbench/rand_unit/{mode}", i), 4, mode)

        points = [unit(i) for (i,) in rngs]
        for p in points:
            total = norm_coeffs(p)
            require(total == 1 if mode == "exact" else abs(total - 1) <= 1e-12,
                    f"rand_unit {mode} point off the unit sphere")
        name = f"sampling.rand_unit.d4.{mode}_us"
        check_recorded(name, points)
        metrics[name] = (timed(unit, rngs), "us")

    def quarter(i):
        return sampling.rand_quarter_pair(CounterRng(0, "perfbench/quarter", i), "exact")

    pairs = [quarter(i) for (i,) in rngs]
    require(all(c * c + s * s == 1 and c > 0 and s > 0 for c, s in pairs),
            "rand_quarter_pair left the open quarter circle")
    check_recorded("sampling.rand_quarter_pair.exact_us", pairs)
    metrics["sampling.rand_quarter_pair.exact_us"] = (timed(quarter, rngs), "us")

    # building a join point of join(S^3, S^3), from precomputed blocks
    for mode in ("exact", "float"):
        blocks = [(X.left, X.right) for (X,) in join_points(mode, "glue")]
        require(all(JoinPoint(p, q).flatten() == p + q for p, q in blocks),
                "JoinPoint changed its coordinates")
        metrics[f"spheremodel.JoinPoint.d8.{mode}_us"] = (timed(JoinPoint, blocks), "us")

    # join multiplication against the doubled-algebra oracle
    inst = imaginaroid_instance("s2")

    def syn(X, Y):
        return joinmul.join_mul_syn(X, Y, inst, allow_unverified=True)

    def alg(X, Y):
        return joinmul.join_mul_alg(X, Y, 3)

    for mode, view, name in (("exact", "glue", "joinmul.join_mul_syn.glue.exact_us"),
                             ("float", "glue", "joinmul.join_mul_syn.glue.float_us"),
                             ("exact", "inl", "joinmul.join_mul_syn.inl.exact_us")):
        xs = join_points(mode, view)
        ys = join_points(mode, "glue")
        inputs = [(X, Y) for (X,), (Y,) in zip(xs, ys)]
        for X, Y in inputs:
            got, want = syn(X, Y).flatten(), alg(X, Y).flatten()
            require(same(encode(got), encode(want)) if mode == "float" else got == want,
                    f"{name}: join_mul_syn differs from join_mul_alg")
        metrics[name] = (timed(syn, inputs), "us")
        if name == "joinmul.join_mul_syn.glue.exact_us":
            metrics["joinmul.join_mul_alg.L3.exact_us"] = (timed(alg, inputs), "us")

    # filler evaluation on the grid-16 parameters
    params = sampling.quarter_grid(16)
    xs = [SpherePoint(sampling.rand_unit(CounterRng(0, "perfbench/filler", i), 4, "exact"))
          for i in range(4)]
    fillers = [joinmul.reduced_diamond_filler(x) for x in xs]
    grid = [(f.evaluate, sigma, tau) for f in fillers for sigma in params for tau in params]
    for evaluate, sigma, tau in grid:
        pt = evaluate(sigma, tau)
        require(norm_coeffs(pt.left) + norm_coeffs(pt.right) == 1,
                "filler point off the unit sphere")
    metrics["joinmul.filler_eval.exact_us"] = (
        timed(lambda evaluate, sigma, tau: evaluate(sigma, tau), grid), "us")

    # Hopf projection of join(S^3, S^3) onto susp(S^3)
    fibration = hopf.hopf_instance("quaternionic")
    for mode in ("exact", "float"):
        xs = join_points(mode, "glue")
        images = [hopf.hopf_map(X, fibration).coords for (X,) in xs]
        for img in images:
            total = norm_coeffs(img)
            require(total == 1 if mode == "exact" else abs(total - 1) <= 1e-9,
                    "Hopf image off the unit sphere")
        name = f"hopf.hopf_map.quaternionic.{mode}_us"
        check_recorded(name, images)
        metrics[name] = (timed(lambda X: hopf.hopf_map(X, fibration), xs), "us")

    # execute_check overhead with a trivial law
    n_inputs = 2000
    for workers in (1, 2):
        def run_check(workers=workers):
            return checks.execute_check("trivial", "bench", lambda inputs: (0, None, None),
                                        sampler=lambda i: (i,), samples=n_inputs,
                                        workers=workers)

        report = run_check()
        require(report.status == checks.STATUS_HOLDS_EXACT and report.samples == n_inputs,
                "execute_check misreported a trivial law")
        metrics[f"checks.execute_check.w{workers}.per_input_us"] = (
            timed(run_check, [()], per=n_inputs), "us")

    # report serialization of the 69-report fibration document
    doc = cli.run(cli.RunConfig("fibration", instance="all", samples=1, fmt="json"))
    require(len(json.loads(cli.emit(doc, "json"))["reports"]) == 69,
            "fibration document does not have 69 reports")
    metrics["cli.emit.json_ms"] = (timed(cli.emit, [(doc, "json")]) / 1000.0, "ms")
    return metrics, outputs


def main(argv) -> int:
    record = "--record" in argv
    recorded = {} if record else json.loads(REFERENCE.read_text())
    try:
        metrics, outputs = bench(recorded, record)
    except CheckFailed as err:
        print(f"micro: self-check failed: {err}", file=sys.stderr)
        return 1
    if record:
        REFERENCE.write_text(json.dumps(outputs, indent=1) + "\n")
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
