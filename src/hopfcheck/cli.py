"""Command-line harness: run suites, emit JSON/CSV/text reports.

Exit codes: 0 when every report matched its expectation (the property
ladder's known failures count as expected), 1 on any unexpected outcome
or internal error (one line on stderr), 2 on usage errors.  HOPFCHECK_SEED
overrides --seed when set.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .checks import (STATUS_FAILS, STATUS_HOLDS_EXACT, LawReport, ReportDocument,
                     coeffs_to_json)
from .cdalg import law_suite, zero_divisor_search
from .errors import InvariantViolation, NotInvertibleError, PreconditionError, UsageError
from .hopf import FIBRATIONS, fiber_check, fibration_report, hopf_instance
from .joinmul import diamond_suite, join_hspace_carrier, oracle_equivalence_suite
from .laws import (assoc_check, hspace_check, imaginaroid_check,
                   imaginaroid_instance, spheroid_check, spheroid_instance,
                   sphere_hspace_carrier)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2


@dataclass
class RunConfig:
    subcommand: str
    instance: str = ""
    level: int = 0
    mode: str = "exact"
    samples: int = 10000
    seed: int = 0
    tolerance: float = 1e-9
    output: str = ""
    fmt: str = "text"
    grid: int = 64
    workers: int = 1

    def echo(self) -> dict:
        d = {
            "subcommand": self.subcommand,
            "instance": self.instance,
            "level": self.level,
            "mode": self.mode,
            "samples": self.samples,
            "seed": self.seed,
            "tolerance": None if self.mode == "exact" else self.tolerance,
            "output": self.output,
            "format": self.fmt,
            "workers": self.workers,
        }
        if self.subcommand == "diamond":
            d["grid"] = self.grid
        return d


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hopfcheck",
        description="Verify multiplicative sphere structures, join "
                    "multiplications and Hopf fibrations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=("exact", "float"), default="exact")
    common.add_argument("--samples", type=int, default=10000)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tolerance", type=float, default=1e-9,
                        help="residual bound in float mode (ignored in exact mode)")
    common.add_argument("--output", default="", help="write the report here instead of stdout")
    common.add_argument("--format", dest="fmt", choices=("json", "csv", "text"),
                        default="text")
    common.add_argument("--workers", type=int, default=1,
                        help="accepted and recorded in the report config; checks run on "
                             "one thread and reports do not depend on it")

    p = sub.add_parser("laws", parents=[common],
                       help="property ladder of one Cayley-Dickson level")
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("zerodiv", parents=[common],
                       help="search two-term zero divisors at one level")
    p.add_argument("--level", type=int, required=True)

    p = sub.add_parser("spheroid", parents=[common], help="spheroid law suite")
    p.add_argument("--instance", choices=("s0", "s1", "s3"), required=True)

    p = sub.add_parser("imaginaroid", parents=[common], help="imaginaroid law suite")
    p.add_argument("--instance", choices=("empty", "s0", "s2"), required=True)

    p = sub.add_parser("hspace", parents=[common], help="H-space law suite")
    p.add_argument("--instance", choices=("s0", "s1", "s3", "s7"), required=True)

    p = sub.add_parser("diamond", parents=[common],
                       help="evaluate square fillers on a parameter grid")
    p.add_argument("--instance", choices=("empty", "s0", "s2"), default="s2")
    p.add_argument("--grid", type=int, default=64)

    p = sub.add_parser("fiber", parents=[common], help="fiber structure checks")
    p.add_argument("--instance", choices=tuple(FIBRATIONS), required=True)

    p = sub.add_parser("fibration", parents=[common],
                       help="aggregate report for one or all fibrations")
    p.add_argument("--instance", choices=tuple(FIBRATIONS) + ("all",), default="all")

    return parser


def run(config: RunConfig) -> ReportDocument:
    """Execute the configured suite and assemble the report document."""
    if config.samples < 1:
        raise UsageError("samples must be >= 1")
    if config.workers < 1:
        raise UsageError("workers must be >= 1")
    if config.grid < 1:
        raise UsageError("grid must be >= 1")
    if not 0 <= config.tolerance < math.inf:
        raise UsageError("tolerance must be a finite number >= 0")
    if config.mode not in ("exact", "float"):
        raise UsageError(f"unknown mode {config.mode!r}")
    t0 = time.perf_counter()
    kw = dict(samples=config.samples, seed=config.seed, mode=config.mode,
              tolerance=config.tolerance)
    cmd = config.subcommand

    if cmd == "laws":
        reports = law_suite(config.level, **kw)
    elif cmd == "zerodiv":
        reports = [_zerodiv_report(config)]
    elif cmd == "spheroid":
        reports = spheroid_check(spheroid_instance(config.instance), **kw)
    elif cmd == "imaginaroid":
        reports = imaginaroid_check(imaginaroid_instance(config.instance), **kw)
    elif cmd == "hspace":
        if config.instance == "s7":
            inst = imaginaroid_instance("s2")
            assoc = assoc_check(inst, **kw)
            reports = [assoc]
            if assoc.holds:     # the join suites need an associative fiber
                reports += hspace_check(join_hspace_carrier(inst), **kw)
                reports += oracle_equivalence_suite(inst, **kw)
        else:
            reports = hspace_check(sphere_hspace_carrier(config.instance), **kw)
    elif cmd == "diamond":
        reports = diamond_suite(imaginaroid_instance(config.instance),
                                grid=config.grid, **kw)
    elif cmd == "fiber":
        inst = hopf_instance(config.instance)
        # fiber_check first: it rejects a vacuous float tolerance before any work
        reports = fiber_check(inst, **kw) + [assoc_check(inst.imag, **kw)]
    elif cmd == "fibration":
        names = tuple(FIBRATIONS) if config.instance == "all" else (config.instance,)
        reports = []
        for name in names:
            doc = fibration_report(hopf_instance(name), version=__version__, **kw)
            reports.extend(doc.reports)
    else:
        raise UsageError(f"unknown subcommand {cmd!r}")

    doc = ReportDocument(version=__version__, config=config.echo(), reports=reports)
    doc.finalize()
    doc.duration_ms = (time.perf_counter() - t0) * 1000.0
    return doc


def _zerodiv_report(config: RunConfig):
    t0 = time.perf_counter()
    witness = zero_divisor_search(config.level, mode=config.mode)
    expect_none = config.level <= 3
    duration = (time.perf_counter() - t0) * 1000.0
    if witness is None:
        return LawReport(
            law="zero-divisor-search", instance=f"level-{config.level}",
            status=STATUS_HOLDS_EXACT, samples=0, tolerance=None,
            max_residual=0.0, witness=None, seed=config.seed,
            duration_ms=duration, expected=expect_none)
    a, b = witness
    return LawReport(
        law="zero-divisor-search", instance=f"level-{config.level}",
        status=STATUS_FAILS, samples=0, tolerance=None, max_residual=0.0,
        witness={"inputs": [coeffs_to_json(a.coeffs), coeffs_to_json(b.coeffs)],
                 "lhs": coeffs_to_json(tuple(0 for _ in a.coeffs)),
                 "rhs": "zero product of nonzero factors"},
        seed=config.seed, duration_ms=duration, expected=not expect_none)


def emit(doc: ReportDocument, fmt: str) -> bytes:
    """Serialize a report document: json, csv (one report per row) or text."""
    if fmt == "json":
        return json.dumps(doc.to_dict(), indent=2).encode() + b"\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["law", "instance", "status", "samples", "tolerance",
                         "max_residual", "seed", "duration_ms", "expected",
                         "witness"])
        for r in doc.reports:
            writer.writerow([
                r.law, r.instance, r.status, r.samples,
                "" if r.tolerance is None else r.tolerance,
                r.max_residual, r.seed, r.duration_ms, r.expected,
                "" if r.witness is None else json.dumps(r.witness)])
        return buf.getvalue().encode()
    if fmt == "text":
        lines = [f"hopfcheck {doc.version}  overall={doc.overall}  "
                 f"({doc.duration_ms:.0f} ms)"]
        for r in doc.reports:
            mark = "ok " if r.expected else "UNEXPECTED"
            lines.append(
                f"  [{mark}] {r.instance:24s} {r.law:32s} {r.status:13s}"
                f" samples={r.samples} max_residual={r.max_residual:.3e}")
        return ("\n".join(lines) + "\n").encode()
    raise UsageError(f"unknown format {fmt!r}")


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        # argparse exits 2 on usage errors and 0 for --help/--version
        return int(err.code or 0)

    env_seed = os.environ.get("HOPFCHECK_SEED")
    if env_seed is not None:
        try:
            args.seed = int(env_seed)
        except ValueError:
            print(f"hopfcheck: invalid HOPFCHECK_SEED {env_seed!r}", file=sys.stderr)
            return EXIT_USAGE

    config = RunConfig(
        subcommand=args.subcommand,
        instance=getattr(args, "instance", ""),
        level=getattr(args, "level", 0),
        mode=args.mode,
        samples=args.samples,
        seed=args.seed,
        tolerance=args.tolerance,
        output=args.output,
        fmt=args.fmt,
        grid=getattr(args, "grid", 64),
        workers=args.workers,
    )
    try:
        doc = run(config)
    except UsageError as err:
        print(f"hopfcheck: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, InvariantViolation, NotInvertibleError) as err:
        print(f"hopfcheck: internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_UNEXPECTED

    payload = emit(doc, config.fmt)
    if config.output:
        try:
            with open(config.output, "wb") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"hopfcheck: cannot write {config.output}: {err}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(payload.decode())
    return EXIT_OK if doc.overall == "pass" else EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
