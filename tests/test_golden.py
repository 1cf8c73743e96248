"""Golden reports: every suite's report documents, with durations stripped,
compared with reference files in tests/golden/.

The cases cover every CLI subcommand and instance in both modes with one
and three workers (the ladder and the zero-divisor search at levels 0-5,
the diamond suite on a grid of 6, and a few float runs with zero tolerance
so that sampling finds the witnesses), plus the suites that only the library
reaches: associativity, corner transport, the join unit laws, the octonion
controls and deliberately broken structures.  A report that changes shows
up here as a failing case.

Regenerate the files only when a report is meant to change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hopfcheck.cli import main
from hopfcheck.hopf import FIBRATIONS
from hopfcheck.joinmul import diamond_suite, join_hspace_carrier, unit_law_check
from hopfcheck.laws import (assoc_check, corner_transport_check, corner_transport_suite,
                            hspace_check, imaginaroid_check, imaginaroid_instance,
                            spheroid_check, spheroid_instance)
from hopfcheck.spheremodel import basis_coords

GOLDEN = Path(__file__).parent / "golden"
SAMPLES = 8
SEED = 3
MODES = ("exact", "float")
IMAGINAROIDS = ("empty", "s0", "s2")


def _cli_cases() -> list:
    per_mode = [("laws", "--level", str(n)) for n in range(6)]
    per_mode += [("zerodiv", "--level", str(n)) for n in range(6)]
    per_mode += [("spheroid", "--instance", n) for n in ("s0", "s1", "s3")]
    per_mode += [("imaginaroid", "--instance", n) for n in IMAGINAROIDS]
    per_mode += [("hspace", "--instance", n) for n in ("s0", "s1", "s3", "s7")]
    per_mode += [("diamond", "--instance", n, "--grid", "6") for n in IMAGINAROIDS]
    per_mode += [("fiber", "--instance", n) for n in FIBRATIONS]
    per_mode += [("fibration", "--instance", n) for n in tuple(FIBRATIONS) + ("all",)]
    # zero float tolerance turns rounding into witnesses found by sampling
    zero_tolerance = [argv + ("--tolerance", "0") for argv in (
        ("laws", "--level", "3"), ("spheroid", "--instance", "s3"),
        ("hspace", "--instance", "s3"), ("hspace", "--instance", "s7"),
        ("fiber", "--instance", "complex"))]
    runs = [(argv, mode) for mode in MODES for argv in per_mode]
    runs += [(argv, "float") for argv in zero_tolerance]
    cases = [argv + ("--mode", mode, "--samples", str(SAMPLES), "--seed", str(SEED),
                     "--workers", workers)
             for argv, mode in runs for workers in ("1", "3")]
    # a far pair of translations whose translates differ by less than 0.5 in every
    # coordinate but lie farther apart than that: separation holds
    return cases + [("fiber", "--instance", "complex", "--mode", "float", "--tolerance", "0.5",
                     "--samples", "20", "--seed", "0", "--workers", "1")]


def _strip(report_dicts: list) -> list:
    out = json.loads(json.dumps(report_dicts))
    for r in out:
        del r["duration_ms"]
    return out


def run_cli_case(argv: tuple) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--format", "json"])
    doc = json.loads(buf.getvalue())
    del doc["duration_ms"]
    doc["reports"] = _strip(doc["reports"])
    return {"exit": code, "doc": doc}


def _verified(name: str):
    inst = imaginaroid_instance(name)
    assoc_check(inst, samples=SAMPLES, seed=SEED)
    return inst


def _broken_conj_spheroid():
    return spheroid_instance("s1")._replace(name="broken-conj", conj=lambda x: x)


def _broken_unit_carrier():
    return spheroid_instance("s1")._replace(name="broken-unit",
                                            unit=(Fraction(0), Fraction(1)))


def _library_suites(mode: str) -> dict:
    """Suites the CLI does not reach, as thunks returning report lists."""
    kw = dict(samples=SAMPLES, seed=SEED, mode=mode)
    octonion = "octonion-control"
    suites = {}
    for name in IMAGINAROIDS:
        suites[f"assoc/{name}"] = lambda name=name: [
            assoc_check(imaginaroid_instance(name), **kw)]
        suites[f"corner-suite/{name}"] = lambda name=name: [
            corner_transport_suite(_verified(name), **kw)]
        suites[f"unit/{name}"] = lambda name=name: unit_law_check(_verified(name), **kw)
    suites[f"assoc/{octonion}"] = lambda: [
        assoc_check(imaginaroid_instance(octonion), **kw)]
    suites[f"corner-suite/{octonion}"] = lambda: [corner_transport_suite(
        imaginaroid_instance(octonion), allow_unverified=True, **kw)]
    suites[f"imaginaroid/{octonion}"] = lambda: imaginaroid_check(
        imaginaroid_instance(octonion), **kw)
    suites[f"diamond/{octonion}"] = lambda: diamond_suite(
        imaginaroid_instance(octonion), grid=4, **kw)
    suites["hspace/join-s3"] = lambda: hspace_check(join_hspace_carrier(_verified("s0")), **kw)
    suites["spheroid/broken-conj"] = lambda: spheroid_check(_broken_conj_spheroid(), **kw)
    suites["hspace/broken-unit"] = lambda: hspace_check(_broken_unit_carrier(), **kw)
    return suites


def _corner_check_reports() -> list:
    s0 = _verified("s0")
    i, one = (Fraction(0), Fraction(1)), basis_coords(s0.susp_dim, 0, Fraction(1))
    octonion = imaginaroid_instance("octonion-control")
    e = [tuple(Fraction(int(k == j)) for k in range(8)) for j in range(8)]
    return [corner_transport_check(s0, i, one, i, one),
            corner_transport_check(octonion, e[1], e[2], e[4], e[7], allow_unverified=True)]


def library_cases() -> dict:
    cases = {"corner-check": _corner_check_reports}
    for mode in MODES:
        for key, thunk in _library_suites(mode).items():
            cases[f"{key}/{mode}"] = thunk
    return cases


def run_library_case(key: str) -> list:
    return _strip([r.to_dict() for r in library_cases()[key]()])


def _load(name: str) -> dict:
    return json.loads((GOLDEN / name).read_text())


def _canonical(obj) -> str:
    # a canonical dump keeps 0 and 0.0 apart, unlike ==
    return json.dumps(obj, sort_keys=True)


CLI_KEYS = [" ".join(argv) for argv in _cli_cases()]


@pytest.fixture(scope="module")
def golden_cli():
    return _load("cli.json")


@pytest.fixture(scope="module")
def golden_library():
    return _load("library.json")


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("HOPFCHECK_SEED", raising=False)


def test_golden_files_cover_every_case(golden_cli, golden_library):
    assert sorted(golden_cli) == sorted(CLI_KEYS)
    assert sorted(golden_library) == sorted(library_cases())


@pytest.mark.parametrize("argv", _cli_cases(), ids=CLI_KEYS)
def test_cli_reports_match_golden(argv, golden_cli):
    assert _canonical(run_cli_case(argv)) == _canonical(golden_cli[" ".join(argv)])


@pytest.mark.parametrize("key", sorted(library_cases()))
def test_library_reports_match_golden(key, golden_library):
    assert _canonical(run_library_case(key)) == _canonical(golden_library[key])


def record():
    """Rewrite the golden files and print the id of each case whose document changed."""
    GOLDEN.mkdir(exist_ok=True)
    cli = {" ".join(argv): run_cli_case(argv) for argv in _cli_cases()}
    library = {key: run_library_case(key) for key in library_cases()}
    changed = []
    for name, data in (("cli.json", cli), ("library.json", library)):
        path = GOLDEN / name
        stored = json.loads(path.read_text()) if path.exists() else {}
        changed += [f"{name}: {key}" for key in sorted(set(data) | set(stored))
                    if _canonical(data.get(key)) != _canonical(stored.get(key))]
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    n_cli = sum(len(case["doc"]["reports"]) for case in cli.values())
    n_lib = sum(len(reports) for reports in library.values())
    print(f"recorded {len(cli)} CLI cases ({n_cli} reports) and "
          f"{len(library)} library cases ({n_lib} reports)")
    print("\n".join(f"changed {case}" for case in changed) or "unchanged")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
