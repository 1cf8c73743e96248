"""Run one hopfcheck CLI invocation with layer spans, then write the spans out.

    python3 perfbench/trace_cli.py OUT_STEM INVOCATION_ID -- <hopfcheck arguments>

Behaves like `python3 -m hopfcheck.cli <arguments>` (same stdout and exit
code) and in addition writes OUT_STEM.json and OUT_STEM.bin (see spans.py).
The wrappers live here, outside the program: every module-level name in the
hopfcheck package that is bound to a wrapped function is rebound, and the
callables the program creates at run time (filler evaluators, samplers and
evaluators handed to execute_check) are wrapped where they are created or
passed in.
"""

from __future__ import annotations

import sys
from pathlib import Path

from spans import Tracer

#: (module, function, span name, outermost calls only)
LAYER_FUNCTIONS = (
    ("cdalg", "mul_coeffs", "cdalg.mul_coeffs", True),
    ("cdalg", "zero_divisor_search", "cdalg.zero_divisor_search", False),
    ("joinmul", "join_mul_syn", "joinmul.join_mul_syn", False),
    ("joinmul", "join_mul_alg", "joinmul.join_mul_alg", False),
    ("hopf", "hopf_map", "hopf.hopf_map", False),
    ("cli", "run", "cli.run", False),
    ("cli", "emit", "cli.emit", False),
)


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "hopfcheck" or name.startswith("hopfcheck."))]


def rebind_everywhere(original, replacement):
    """Point every module-level name bound to `original` at `replacement`."""
    for module in _package_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def install(tracer: Tracer):
    """Wrap the layer functions and the callables the program creates at run time."""
    import importlib

    import hopfcheck.cli  # noqa: F401  (loads every module of the package)

    for mod_name, fn_name, span, outermost in LAYER_FUNCTIONS:
        original = getattr(importlib.import_module(f"hopfcheck.{mod_name}"), fn_name)
        rebind_everywhere(original, tracer.wrap(span, original, outermost_only=outermost))
    _wrap_execute_check(tracer)
    _wrap_structured_tuples(tracer)
    _wrap_filler(tracer)
    _wrap_join_point(tracer)


def _wrap_execute_check(tracer: Tracer):
    from hopfcheck import checks

    original = checks.execute_check
    counters = tracer.counters

    def counting(iterable):
        for item in iterable:
            counters["checks.inputs.structured"] += 1
            yield item

    def run(law, instance, evaluate, **kwargs):
        # runs inside the execute_check span, which parents the worker threads
        sid = tracer.current_span()
        saved, tracer.thread_parent = tracer.thread_parent, sid
        try:
            report = original(law, instance, evaluate, **kwargs)
        finally:
            tracer.thread_parent = saved
        tracer.checks.append((sid, kwargs.get("workers", 1), report.status))
        return report

    traced = tracer.wrap("checks.execute_check", run)

    def execute_check(law, instance, evaluate, **kwargs):
        kwargs["structured"] = counting(kwargs.get("structured", ()))
        if kwargs.get("sampler") is not None:
            kwargs["sampler"] = tracer.wrap("sampling.sampler", kwargs["sampler"])
        return traced(law, instance, tracer.wrap("checks.evaluate", evaluate), **kwargs)

    rebind_everywhere(original, execute_check)


def _wrap_structured_tuples(tracer: Tracer):
    from hopfcheck import cdalg

    original = cdalg.structured_tuples

    def structured_tuples(*args, **kwargs):
        for item in original(*args, **kwargs):
            tracer.counters["cdalg.structured_tuples.emitted"] += 1
            yield item

    rebind_everywhere(original, structured_tuples)


def _wrap_filler(tracer: Tracer):
    from hopfcheck import joinmul

    original = joinmul.reduced_diamond_filler

    def reduced_diamond_filler(*args, **kwargs):
        filler = original(*args, **kwargs)
        return joinmul.SquareFiller(
            filler.problem, tracer.wrap("joinmul.filler_eval", filler.evaluate))

    rebind_everywhere(original, reduced_diamond_filler)


def _wrap_join_point(tracer: Tracer):
    from hopfcheck.spheremodel import JoinPoint

    # the dataclass __init__ looks __post_init__ up on the class at every call
    JoinPoint.__post_init__ = tracer.wrap("spheremodel.JoinPoint.check",
                                          JoinPoint.__post_init__)


def main() -> int:
    stem, invocation, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py OUT_STEM INVOCATION_ID -- ARGS...")
    tracer = Tracer()
    install(tracer)
    import hopfcheck.cli as cli

    code = tracer.wrap("cli.main", cli.main)(argv)
    sys.stdout.flush()
    tracer.dump(Path(stem), int(invocation))
    return code


if __name__ == "__main__":
    sys.exit(main())
