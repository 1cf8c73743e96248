"""Every `run_laws` caller's sampled inputs against the per-sample draws they replaced.

The suites draw through `checks.run_laws`, whose `law_samples` decodes every
sample from lane-pass words, one reader per input kind, with no generator per
sample.  The references below are the draw closures as they were: one
generator per sample, CounterRng(seed, suite(law), i), read through one
`randint` call or one run of words per group of coordinates (the deleted
`randints`, `uniforms`, `uniform` and `sign` methods, written out over
`_u64s` here), with the `stereographic` map.  Every sampled input must equal
its reference in value and type, float bits included.
"""

import math

import pytest

from hopfcheck import checks, cdalg, hopf, joinmul, laws
from hopfcheck.checks import max_abs_diff
from hopfcheck.joinmul import VIEW_KINDS, JOIN_INSTANCE
from hopfcheck.sampling import MAGNITUDE as M, CounterRng, stereographic
from hopfcheck.spheremodel import JoinPoint, Lifted, SpherePoint, arc_point, lifted_arc

SEEDS = (1, 7)


# ---------------------------------------------------------------------------
# the draws as they were


def old_randints(rng, bounds):
    return [lo + u % (hi - lo + 1) for (lo, hi), u in zip(bounds, rng._u64s(len(bounds)))]


def old_uniforms(rng, lo, hi, n):
    span = hi - lo
    return tuple([lo + span * (u / 2.0**64) for u in rng._u64s(n)])


def old_sign(rng):
    return 1 if rng._u64s(1)[0] & 1 else -1


def old_lifted(rng, n):
    ints = old_randints(rng, ((-M, M), (1, M)) * n)
    dens = ints[1::2]
    lcm = math.lcm(*dens)
    return Lifted(tuple(a * (lcm // d) for a, d in zip(ints[::2], dens)), lcm)


def old_stereographic_ints(nums, den):
    d2 = den * den
    s = sum(a * a for a in nums)
    return Lifted((d2 - s,) + tuple(2 * a * den for a in nums), d2 + s)


def old_point(rng, dim, mode):
    if dim == 1:
        sign = old_sign(rng)
        return Lifted((sign,), 1) if mode == "exact" else (sign * 1.0,)
    if mode != "exact":
        return stereographic(old_uniforms(rng, -M, M, dim - 1))
    y = old_lifted(rng, dim - 1)
    return old_stereographic_ints(y.nums, y.den)


def old_quarter(rng, mode):
    if mode == "exact":
        den = rng.randint(2, 4 * M)
        return old_stereographic_ints((rng.randint(1, den - 1),), den)
    return stereographic((0.5 * old_uniforms(rng, 0.0, 1.0, 1)[0] + 0.25,))


def old_join_point(rng, inst, view, mode):
    dim = inst.susp_dim
    if view == "glue":
        u, v = old_point(rng, dim, mode), old_point(rng, dim, mode)
        cs = old_quarter(rng, mode)
        return lifted_arc(u, v, cs) if mode == "exact" else arc_point(u, v, *cs)
    x = old_point(rng, dim, mode)
    zero = Lifted((0,) * dim, x.den) if mode == "exact" else (0.0,) * dim
    return JoinPoint(x, zero) if view == "inl" else JoinPoint(zero, x)


def old_fiber_draw(dim, mode, gap):
    def draw(rng, arity, i):
        u, v = old_point(rng, dim, mode), old_point(rng, dim, mode)
        arc = (u, v) + tuple(old_quarter(rng, mode))
        ws = [old_point(rng, dim, mode)]
        while len(ws) < arity - 1:
            w = old_point(rng, dim, mode)
            if max_abs_diff(ws[0], w) > gap:
                ws.append(w)
        return (arc, *ws)
    return draw


def points(dim, mode):
    return lambda rng, arity, i: tuple(old_point(rng, dim, mode) for _ in range(arity))


# ---------------------------------------------------------------------------
# recording and comparing


def canon(x):
    """x with its types spelled out and floats as their bits."""
    if type(x) is Lifted:
        return ("Lifted", x.nums, x.den)
    if type(x) is JoinPoint:
        return ("JoinPoint", canon(x.left), canon(x.right))
    if type(x) is SpherePoint:
        return ("SpherePoint", canon(x.coords))
    if type(x) in (tuple, list):
        return (type(x).__name__,) + tuple(canon(c) for c in x)
    if type(x) is float:
        return ("float", x.hex())
    return (type(x).__name__, x)


def assert_draws_as_before(monkeypatch, run, seed, reference):
    """run(seed) one suite caller; each law's sampled inputs, in index order, equal
    draw(CounterRng(seed, suite, i), shape, i) for (suite, shape, draw) =
    reference(instance, law)."""
    drawn = {}
    original = checks.execute_check

    def recording(law, instance, evaluate, *, sampler=None, **kw):
        if sampler is not None:
            inputs = drawn.setdefault((instance, law), [])
            inner = sampler

            def sampler(i):
                assert i == len(inputs)
                inputs.append(inner(i))
                return inputs[-1]
        return original(law, instance, evaluate, sampler=sampler, **kw)

    monkeypatch.setattr(checks, "execute_check", recording)
    run(seed)
    assert any(drawn.values())
    for (instance, law), inputs in drawn.items():
        suite, shape, draw = reference(instance, law)
        want = [draw(CounterRng(seed, suite, i), shape, i) for i in range(len(inputs))]
        assert [canon(x) for x in inputs] == [canon(x) for x in want], (instance, law)


def arities(*tables):
    """The shape each old draw took: an oracle law's pair of views, else the arity."""
    return {law: kinds if law.startswith("oracle") else len(kinds)
            for table in tables for law, _, kinds in table}


# ---------------------------------------------------------------------------
# the callers


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("level", range(6))
def test_ladder_draws_as_before(monkeypatch, seed, mode, level):
    n, shape = 1 << level, arities(cdalg.LADDER_LAWS)
    element = ((lambda rng: old_lifted(rng, n)) if mode == "exact"
               else (lambda rng: old_uniforms(rng, -M, M, n)))
    samples = (40 if level < 4 else 25) if mode == "exact" else 100
    assert_draws_as_before(
        monkeypatch, lambda seed: cdalg.law_suite(level, mode, samples, seed), seed,
        lambda instance, law: (f"cdalg/{law}/level-{level}/{mode}", shape[law],
                               lambda rng, arity, i: tuple(element(rng) for _ in range(arity))))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["s0", "s1", "s3"])
def test_spheroid_and_hspace_draws_as_before(monkeypatch, seed, mode, name):
    dim, samples = {"s0": 1, "s1": 2, "s3": 4}[name], 60 if mode == "exact" else 400
    assert_draws_as_before(
        monkeypatch, lambda seed: laws.spheroid_check(
            laws.spheroid_instance(name), samples, seed, mode), seed,
        lambda instance, law: (f"laws/{name}/{law}/{mode}",
                               arities(laws.SPHEROID_LAWS)[law], points(dim, mode)))
    assert_draws_as_before(
        monkeypatch, lambda seed: laws.hspace_check(
            laws.spheroid_instance(name), samples, seed, mode), seed,
        lambda instance, law: (f"hspace/{name}/{law}/{mode}",
                               arities(laws.HSPACE_LAWS)[law], points(dim, mode)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["empty", "s0", "s2"])
def test_imaginaroid_draws_as_before(monkeypatch, seed, mode, name):
    inst = laws.imaginaroid_instance(name)
    samples = 40 if mode == "exact" else 300
    shapes = arities(laws.IMAGINAROID_LAWS, laws.SPHEROID_LAWS)

    def reference(instance, law):
        if law == "base-neg-involution":
            return f"laws/{name}/base-neg/{mode}", 1, points(inst.base_dim, mode)
        if law == "associativity":
            return f"laws/{name}/assoc/{mode}", 3, points(inst.susp_dim, mode)
        if law == "corner-transport":
            return f"laws/{name}/corner/{mode}", 4, points(inst.susp_dim, mode)
        return f"laws/{instance}/{law}/{mode}", shapes[law], points(inst.susp_dim, mode)

    def run(seed):
        laws.imaginaroid_check(inst, samples, seed, mode)
        if laws.assoc_check(inst, samples, seed, mode).holds:
            laws.corner_transport_suite(inst, samples, seed, mode)

    assert_draws_as_before(monkeypatch, run, seed, reference)


def verified(name):
    inst = laws.imaginaroid_instance(name)
    inst.assoc_verified = True
    return inst


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["empty", "s0", "s2"])
def test_join_carrier_draws_as_before(monkeypatch, seed, mode, name):
    inst, carrier = verified(name), JOIN_INSTANCE[name]
    samples = 30 if mode == "exact" else 300

    def sample(rng, arity, i):
        return tuple(old_join_point(rng, inst, VIEW_KINDS[rng.randint(0, 2)], mode)
                     for _ in range(arity))

    assert_draws_as_before(
        monkeypatch, lambda seed: laws.hspace_check(
            joinmul.join_hspace_carrier(inst), samples, seed, mode), seed,
        lambda instance, law: (f"hspace/{carrier}/{law}/{mode}",
                               arities(laws.HSPACE_LAWS)[law], sample))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["empty", "s0", "s2"])
def test_unit_and_oracle_draws_as_before(monkeypatch, seed, mode, name):
    inst, carrier = verified(name), JOIN_INSTANCE[name]
    samples = 45 if mode == "exact" else 900

    def reference(instance, law):
        if law.startswith("oracle-equivalence"):
            views = arities(joinmul.ORACLE_LAWS)[law]
            return (f"joinmul/{carrier}/{law}/{mode}", views, lambda rng, views, i: tuple(
                old_join_point(rng, inst, v, mode) for v in views))
        return (f"joinmul/{carrier}/unit/{mode}", 1, lambda rng, arity, i: (
            old_join_point(rng, inst, VIEW_KINDS[i % 3], mode),))

    def run(seed):
        joinmul.unit_law_check(inst, samples, seed, mode)
        joinmul.oracle_equivalence_suite(inst, samples, seed, mode)

    assert_draws_as_before(monkeypatch, run, seed, reference)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode,tolerance", [("exact", 1e-9), ("float", 1e-9), ("float", 0.9)])
@pytest.mark.parametrize("name", ["real", "complex", "quaternionic"])
def test_fiber_draws_as_before(monkeypatch, seed, mode, tolerance, name):
    # exact real fibers redraw w half the time (S^0 has two points), and so do
    # float fibers at tolerance 0.9
    inst = hopf.hopf_instance(name)
    gap = tolerance if mode == "float" else 0
    assert_draws_as_before(
        monkeypatch, lambda seed: hopf.fiber_check(inst, 40 if mode == "exact" else 300, seed,
                                                   mode, tolerance=tolerance), seed,
        lambda instance, law: (f"fiber/{name}/{law}/{mode}", arities(hopf.FIBER_LAWS)[law],
                               old_fiber_draw(inst.fiber_dim, mode, gap)))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("name", ["s0", "s2"])
def test_diamond_draws_as_before(monkeypatch, seed, mode, name):
    # samples 0 and 1 are the poles and draw no word, so every sample steps
    inst = laws.imaginaroid_instance(name)
    dim, instance = inst.susp_dim, JOIN_INSTANCE[name]

    def draw(rng, arity, i):
        if i < 2:
            return (SpherePoint.basis(dim, 0, 1 - 2 * i),)
        return (SpherePoint(tuple(old_point(rng, dim, mode))),)

    assert_draws_as_before(
        monkeypatch, lambda seed: joinmul.diamond_suite(inst, 4, 12, seed, mode), seed,
        lambda _, law: (f"diamond/{instance}/x/{mode}", 1, draw))
