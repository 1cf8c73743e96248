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
from typing import NamedTuple

from . import __version__
from .checks import (REPORT_FIELDS, STATUS_FAILS, STATUS_HOLDS_EXACT, LawReport,
                     ReportDocument, coeffs_to_json)
from .cdalg import LADDER, law_suite, zero_divisor_search
from .errors import InvariantViolation, PreconditionError, UsageError
from .hopf import FIBRATIONS, fiber_check, fibration_report, hopf_instance
from .joinmul import diamond_suite, join_hspace_carrier, oracle_equivalence_suite
from .laws import (assoc_check, hspace_check, imaginaroid_check,
                   imaginaroid_instance, spheroid_check, spheroid_instance)

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_USAGE = 2


class RunConfig(NamedTuple):
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


def _zerodiv(config: RunConfig, kw: dict) -> list:
    t0 = time.perf_counter()
    witness = zero_divisor_search(config.level, mode=config.mode)
    duration = (time.perf_counter() - t0) * 1000.0
    if witness is not None:
        a, b = witness
        witness = {"inputs": [coeffs_to_json(a), coeffs_to_json(b)],
                   "lhs": coeffs_to_json((0,) * len(a)),
                   "rhs": "zero product of nonzero factors"}
    return [LawReport(
        law="zero-divisor-search", instance=f"level-{config.level}",
        status=STATUS_HOLDS_EXACT if witness is None else STATUS_FAILS, samples=0,
        tolerance=None, max_residual=0.0, witness=witness, seed=config.seed, duration_ms=duration,
        expected=(witness is None) == LADDER["zero-divisor-search"](config.level))]


def _hspace(config: RunConfig, kw: dict) -> list:
    if config.instance != "s7":
        return hspace_check(spheroid_instance(config.instance), **kw)
    inst = imaginaroid_instance("s2")
    assoc = assoc_check(inst, **kw)
    if not assoc.holds:     # the join suites need an associative fiber
        return [assoc]
    return ([assoc] + hspace_check(join_hspace_carrier(inst), **kw)
            + oracle_equivalence_suite(inst, **kw))


def _fiber(config: RunConfig, kw: dict) -> list:
    inst = hopf_instance(config.instance)
    # fiber_check first: it rejects a vacuous float tolerance before any work
    return fiber_check(inst, **kw) + [assoc_check(inst.imag, **kw)]


def _fibration(config: RunConfig, kw: dict) -> list:
    names = tuple(FIBRATIONS) if config.instance == "all" else (config.instance,)
    return [r for name in names for r in fibration_report(hopf_instance(name), **kw)]


#: name -> (help, --instance choices or None for a --level row, --instance default
#: or None for a required one, runner(config, kw) -> reports); only diamond adds --grid
SUBCOMMANDS = {
    "laws": (
        "property ladder of one Cayley-Dickson level", None, None,
        lambda config, kw: law_suite(config.level, **kw)),
    "zerodiv": ("search two-term zero divisors at one level", None, None, _zerodiv),
    "spheroid": (
        "spheroid law suite", ("s0", "s1", "s3"), None,
        lambda config, kw: spheroid_check(spheroid_instance(config.instance), **kw)),
    "imaginaroid": (
        "imaginaroid law suite", ("empty", "s0", "s2"), None,
        lambda config, kw: imaginaroid_check(imaginaroid_instance(config.instance), **kw)),
    "hspace": ("H-space law suite", ("s0", "s1", "s3", "s7"), None, _hspace),
    "diamond": (
        "evaluate square fillers on a parameter grid", ("empty", "s0", "s2"), "s2",
        lambda config, kw: diamond_suite(imaginaroid_instance(config.instance),
                                         grid=config.grid, **kw)),
    "fiber": ("fiber structure checks", tuple(FIBRATIONS), None, _fiber),
    "fibration": (
        "aggregate report for one or all fibrations", tuple(FIBRATIONS) + ("all",), "all",
        _fibration),
}


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
    common.set_defaults(instance="", level=0, grid=64)

    for name, (help_text, instances, default, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        if instances is None:
            p.add_argument("--level", type=int, required=True)
        else:
            p.add_argument("--instance", choices=instances, default=default,
                           required=default is None)
        if name == "diamond":
            p.add_argument("--grid", type=int)   # default from common
    return parser


def run(config: RunConfig) -> ReportDocument:
    """Execute the configured suite and assemble the report document."""
    if config.samples < 1:
        raise UsageError("samples must be >= 1")
    if config.workers < 1:
        raise UsageError("workers must be >= 1")
    if not 0 <= config.tolerance < math.inf:
        raise UsageError("tolerance must be a finite number >= 0")
    if config.mode not in ("exact", "float"):
        raise UsageError(f"unknown mode {config.mode!r}")
    if config.subcommand not in SUBCOMMANDS:
        raise UsageError(f"unknown subcommand {config.subcommand!r}")
    t0 = time.perf_counter()
    kw = dict(samples=config.samples, seed=config.seed, mode=config.mode,
              tolerance=config.tolerance)
    *_, runner = SUBCOMMANDS[config.subcommand]
    reports = runner(config, kw)
    doc = ReportDocument(version=__version__, config=config.echo(), reports=reports)
    doc.finalize()
    doc.duration_ms = (time.perf_counter() - t0) * 1000.0
    return doc


def emit(doc: ReportDocument, fmt: str) -> bytes:
    """Serialize a report document: json, csv (one report per row) or text."""
    if fmt == "json":
        return json.dumps(doc.to_dict(), indent=2).encode() + b"\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(REPORT_FIELDS)
        for row in (r.to_dict() for r in doc.reports):
            if "witness" in row:
                row["witness"] = json.dumps(row["witness"])
            writer.writerow(row.get(name) for name in REPORT_FIELDS)   # None writes ""
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

    config = RunConfig(**vars(args))
    try:
        doc = run(config)
    except UsageError as err:
        print(f"hopfcheck: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, InvariantViolation) as err:
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
