"""CLI behavior: exit codes, report schema, determinism."""

import csv
import io
import json
import subprocess
import sys
import threading
from fractions import Fraction

import pytest

from hopfcheck import __version__, cdalg, cli, joinmul, laws, sampling
from hopfcheck.checks import REPORT_FIELDS, ReportDocument
from hopfcheck.cli import emit, main
from hopfcheck.errors import InvariantViolation, PreconditionError, UsageError
from hopfcheck.spheremodel import JoinPoint, SpherePoint, basis_coords

REPORT_KEYS = {"law", "instance", "status", "samples", "tolerance",
               "max_residual", "seed", "duration_ms", "expected"}
DOC_KEYS = {"version", "config", "reports", "overall", "duration_ms"}


def run_cli(*argv):
    return main(list(argv))


def run_cli_json(tmp_path, *argv, name="out.json"):
    path = tmp_path / name
    code = run_cli(*argv, "--format", "json", "--output", str(path))
    return code, json.loads(path.read_text())


# --- exit codes -----------------------------------------------------------------

def test_broken_kernel_fails_the_ladder_with_witnesses(tmp_path, monkeypatch):
    # level 2's samples take the traced kernel; its structured scan takes `mul_ints`
    original = cdalg._traced_kernel

    def flipped_kernel(n):
        kernel = original(n)

        def flipped(a, b):    # one output coordinate with the wrong sign
            out = kernel(a, b)
            return out[:-1] + (-out[-1],)
        return flipped

    monkeypatch.setattr(cdalg, "_traced_kernel", flipped_kernel)
    code, doc = run_cli_json(tmp_path, "laws", "--level", "2", "--samples", "30")
    assert code == 1 and doc["overall"] == "fail"
    unexpected = [r for r in doc["reports"] if not r["expected"]]
    assert {"alternativity", "associativity"} <= {r["law"] for r in unexpected}
    for r in unexpected:
        assert r["status"] == "fails"
        assert {"inputs", "lhs", "rhs"} <= set(r["witness"])


@pytest.mark.parametrize("level, broken", [
    (0, {"nicely-normed"}),
    (1, {"associativity", "alternativity"}),
    (2, {"associativity", "alternativity"}),
    (3, {"alternativity"}),
])
def test_broken_sign_table_fails_the_ladder_with_structured_witnesses(level, broken, monkeypatch,
                                                                      capsys):
    # every all-int tuple, the structured scan and the proofs, takes `mul_ints`
    original = cdalg.mul_ints

    def flipped(a, b):      # the last output coordinate with the wrong sign
        out = original(a, b)
        return out[:-1] + (-out[-1],)

    monkeypatch.setattr(cdalg, "mul_ints", flipped)
    code = main(["laws", "--level", str(level), "--samples", "30", "--seed", "1",
                 "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["overall"] == "fail"
    unexpected = [r for r in doc["reports"] if not r["expected"]]
    assert {r["law"] for r in unexpected} == broken
    for r in unexpected:
        assert r["status"] == "fails"
        assert {"inputs", "lhs", "rhs"} <= set(r["witness"])
        assert all(type(c) is int for x in r["witness"]["inputs"] for c in x)


def test_broken_exact_kernel_fails_the_ladder_in_the_sampled_phase(tmp_path, monkeypatch):
    # the kernel is wrong only on an operand with a coefficient above 2 in magnitude.  A
    # structured operand is a +-1 input or a product of two, with coefficients up to 2, so
    # the structured scan passes; the lifted samples' numerators fail
    original = cdalg._traced_kernel

    def flipped_kernel(n):
        kernel = original(n)

        def flipped(a, b):      # the last coordinate with the wrong sign
            out = kernel(a, b)
            if any(abs(c) > 2 for c in a + b):
                return out[:-1] + (-out[-1],)
            return out
        return flipped

    monkeypatch.setattr(cdalg, "_traced_kernel", flipped_kernel)
    code, doc = run_cli_json(tmp_path, "laws", "--level", "2", "--samples", "30")
    assert code == 1 and doc["overall"] == "fail"
    unexpected = [r for r in doc["reports"] if not r["expected"]]
    assert unexpected
    for r in unexpected:
        assert r["status"] == "fails"
        assert {"inputs", "lhs", "rhs"} <= set(r["witness"]) and "error" not in r["witness"]
        assert all("/" in c for x in r["witness"]["inputs"] for c in x)


def _assert_internal_error(capsys):
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hopfcheck: internal error: ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_kernel_without_zero_products_is_an_internal_error(monkeypatch, capsys):
    # the sign table finds (e1 + e10)(e4 - e15); a confirming product that disagrees is a fault
    original = cdalg._traced_kernel

    def kernel(n):
        product = original(n)
        return lambda a, b: tuple(c or 1 for c in product(a, b))

    monkeypatch.setattr(cdalg, "_traced_kernel", kernel)
    assert run_cli("zerodiv", "--level", "4") == 1
    _assert_internal_error(capsys)


def test_wrong_sign_table_cannot_confirm_its_own_witness(monkeypatch, capsys):
    # one flipped entry makes the table zero (e0 + e1)(e4 - e5), whose product is -2 e5;
    # the confirming product runs on the traced kernel, which does not read the table
    table = [list(row) for row in cdalg._sign_table(16)]
    table[1][4] = not table[1][4]
    flipped = tuple(map(tuple, table))
    original = cdalg._sign_table
    monkeypatch.setattr(cdalg, "_sign_table", lambda n: flipped if n == 16 else original(n))
    a, b = next(cdalg.zero_pairs(4))
    assert cdalg.mul_coeffs(a, b) == (0,) * 5 + (-2,) + (0,) * 10
    assert run_cli("zerodiv", "--level", "4") == 1
    _assert_internal_error(capsys)


FLOAT_RUNS = {
    "hspace-s7": ("hspace", "--instance", "s7"),
    "fibration-all": ("fibration", "--instance", "all"),
    "spheroid-s3": ("spheroid", "--instance", "s3"),
    "imaginaroid-s2": ("imaginaroid", "--instance", "s2"),
    "laws-3": ("laws", "--level", "3"),
    "fiber-quaternionic": ("fiber", "--instance", "quaternionic"),
    "diamond-s2": ("diamond", "--instance", "s2", "--grid", "4"),
}


def _record_mixes(monkeypatch) -> list:
    """Record the operands of every traced-kernel call that holds both a Fraction and a float."""
    mixes = []
    original = cdalg._traced_kernel

    def traced(n):
        kernel = original(n)

        def recording(a, b):
            kinds = {*map(type, a), *map(type, b)}
            if Fraction in kinds and float in kinds:
                mixes.append((a, b))
            return kernel(a, b)

        return recording

    monkeypatch.setattr(cdalg, "_traced_kernel", traced)
    return mixes


@pytest.mark.parametrize("argv", FLOAT_RUNS.values(), ids=FLOAT_RUNS.keys())
def test_float_runs_hand_the_kernel_no_fraction_float_mix(argv, tmp_path, monkeypatch):
    # the package's exact constants are ints, and float runs draw no Fraction
    mixes = _record_mixes(monkeypatch)
    code, _ = run_cli_json(tmp_path, *argv, "--mode", "float", "--samples", "30")
    assert code == 0
    assert mixes == []


def test_float_run_on_a_fraction_unit_mixes(monkeypatch):
    # the control: a library carrier's Fraction unit meets the float samples as it is
    inst = laws.imaginaroid_instance("s2")
    assert laws.assoc_check(inst, samples=30, mode="float").holds
    carrier = joinmul.join_hspace_carrier(inst)._replace(
        unit=JoinPoint(basis_coords(inst.susp_dim, 0, Fraction(1)),
                       (Fraction(0),) * inst.susp_dim))
    mixes = _record_mixes(monkeypatch)
    assert all(r.holds for r in laws.hspace_check(carrier, samples=30, mode="float"))
    assert mixes


@pytest.mark.parametrize("error", [ValueError, UsageError])
def test_raising_sampler_fails_each_sampled_law(error, tmp_path, monkeypatch, capsys):
    # neither a traceback nor a usage error: the sampled phase fails at sample 0
    def point_of(words, dim, mode):
        raise error("no draw")

    monkeypatch.setattr(sampling, "point_of", point_of)
    code, doc = run_cli_json(tmp_path, "spheroid", "--instance", "s1", "--samples", "5")
    assert code == 1 and doc["overall"] == "fail"
    assert capsys.readouterr().err == ""
    by_law = {r["law"]: r for r in doc["reports"]}
    assert len(by_law) == len(doc["reports"]) == len(laws.SPHEROID_LAWS)
    assert by_law.pop("one-star")["status"] == "holds-exact"     # arity 0: never sampled
    for r in by_law.values():
        assert r["status"] == "fails" and not r["expected"]
        assert r["witness"] == {"sample": 0, "error": f"{error.__name__}: no draw"}


def test_truncating_kernel_fails_the_spheroid_laws(tmp_path, monkeypatch):
    # a product one coordinate short must not be compared on its prefix alone
    original = laws.mul_coeffs
    monkeypatch.setattr(laws, "mul_coeffs", lambda a, b: original(a, b)[:-1])
    code, doc = run_cli_json(tmp_path, "spheroid", "--instance", "s3", "--samples", "20")
    assert code == 1 and doc["overall"] == "fail"
    by_law = {r["law"]: r for r in doc["reports"]}
    for law in ("star-left-inverse", "star-right-inverse"):
        assert by_law[law]["status"] == "fails" and not by_law[law]["expected"]
        assert by_law[law]["witness"]["error"].startswith("ValueError: ")


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_broken_filler_fails_every_grid_law(mode, tmp_path, monkeypatch):
    original = joinmul._reduced_blocks

    def zero_left(sigma, tau, one, x):
        left, right = original(sigma, tau, one, x)
        return tuple(0 * c for c in left), right

    monkeypatch.setattr(joinmul, "_reduced_blocks", zero_left)
    code, doc = run_cli_json(tmp_path, "diamond", "--instance", "s2", "--grid", "4",
                             "--samples", "4", "--mode", mode)
    assert code == 1 and doc["overall"] == "fail"
    by_law = {r["law"]: r for r in doc["reports"]}
    assert set(by_law) == {"filler-unit-norm", "filler-boundary", "filler-pole-reduction"}
    for r in by_law.values():
        assert r["status"] == "fails" and not r["expected"] and r["witness"]["inputs"]
    # the pole row builds JoinPoints, whose unit-norm check raises
    assert by_law["filler-pole-reduction"]["witness"]["error"].startswith("UsageError: ")


def test_expected_ladder_failures_exit_zero(tmp_path):
    code, doc = run_cli_json(
        tmp_path, "laws", "--level", "3", "--mode", "exact", "--samples", "30")
    assert code == 0
    assert doc["overall"] == "pass"
    by_law = {r["law"]: r for r in doc["reports"]}
    assert by_law["associativity"]["status"] == "fails"
    assert by_law["associativity"]["expected"] is True
    assert by_law["alternativity"]["status"] == "holds-exact"


def test_unknown_subcommand_exits_2():
    assert run_cli("no-such-suite") == 2


def test_unknown_flag_exits_2():
    assert run_cli("laws", "--level", "1", "--frobnicate") == 2


@pytest.mark.parametrize("error", [PreconditionError, InvariantViolation])
def test_internal_error_exits_1_with_one_line(error, monkeypatch, capsys):
    def run(config):
        raise error("injected")

    monkeypatch.setattr(cli, "run", run)
    assert run_cli("spheroid", "--instance", "s0", "--samples", "1") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("hopfcheck: internal error: ")
    assert len(err.splitlines()) == 1


#: values outside the documented flag ranges (most once gave a traceback or a silent pass)
BAD_INPUTS = {
    "samples-0": ("laws", "--level", "1", "--samples", "0"),
    "grid-0": ("diamond", "--grid", "0"),
    "grid-negative": ("diamond", "--grid", "-3"),
    "tolerance-negative": ("laws", "--level", "1", "--mode", "float", "--tolerance", "-1"),
    "tolerance-nan": ("laws", "--level", "4", "--mode", "float", "--tolerance", "nan"),
    "tolerance-inf": ("laws", "--level", "1", "--mode", "float", "--tolerance", "inf"),
    "workers-negative": ("laws", "--level", "1", "--workers", "-4"),
    "workers-0": ("laws", "--level", "1", "--workers", "0"),
    "laws-level-6": ("laws", "--level", "6"),
    "zerodiv-level-6": ("zerodiv", "--level", "6"),
    "zerodiv-level-negative": ("zerodiv", "--level", "-1"),
    "fiber-float-tolerance-1.5": ("fiber", "--instance", "quaternionic", "--mode", "float",
                                  "--tolerance", "1.5"),
    "fibration-float-tolerance-2": ("fibration", "--instance", "real", "--mode", "float",
                                    "--tolerance", "2"),
}


@pytest.mark.parametrize("argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_2(argv, capsys):
    samples = () if "--samples" in argv else ("--samples", "5")
    assert run_cli(*argv, *samples) == 2
    err = capsys.readouterr().err
    assert err.startswith("hopfcheck: ") and err.count("\n") == 1


def test_unwritable_output_exits_2(tmp_path):
    target = tmp_path / "nope" / "deeper" / "out.json"
    code = run_cli("laws", "--level", "0", "--samples", "5",
                   "--output", str(target))
    assert code == 2


def test_help_exits_zero():
    assert run_cli("--help") == 0


# --- report schema ----------------------------------------------------------------

def test_json_schema_fields(tmp_path):
    code, doc = run_cli_json(
        tmp_path, "spheroid", "--instance", "s1", "--samples", "40")
    assert code == 0
    assert set(doc.keys()) == DOC_KEYS
    assert doc["version"] == __version__
    for r in doc["reports"]:
        assert REPORT_KEYS <= set(r.keys()) <= REPORT_KEYS | {"witness"}
        assert r["status"] in ("holds-exact", "holds-sampled", "fails")
        if r["status"] == "fails":
            assert "witness" in r


def test_failing_law_serializes_witness_coefficients(tmp_path):
    code, doc = run_cli_json(
        tmp_path, "laws", "--level", "1", "--samples", "20")
    assert code == 0
    realness = next(r for r in doc["reports"] if r["law"] == "realness")
    assert realness["status"] == "fails"
    witness = realness["witness"]
    assert isinstance(witness["inputs"], list)
    assert all(isinstance(c, (int, float, str)) for c in witness["inputs"][0])


#: float runs with --tolerance 0 whose sampled laws find witnesses: the
#: associativity check of the fiber fails (hspace s7, complex), a join law
#: fails on join points (real) or a filler law on sphere points (diamond)
FAILING_FLOAT_RUNS = {
    "hspace-s7": ("hspace", "--instance", "s7"),
    "fibration-complex": ("fibration", "--instance", "complex"),
    "fibration-real": ("fibration", "--instance", "real"),
    "diamond-s2": ("diamond", "--instance", "s2", "--grid", "4"),
}


def _is_coordinates(x):
    return isinstance(x, list) and all(isinstance(c, (int, float, str)) for c in x)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", FAILING_FLOAT_RUNS.values(), ids=FAILING_FLOAT_RUNS.keys())
def test_failing_float_run_reports_witnesses(argv, fmt, capsys):
    code = run_cli(*argv, "--mode", "float", "--tolerance", "0", "--samples", "8",
                   "--seed", "3", "--format", fmt)
    out, err = capsys.readouterr()
    assert code == 1
    assert err == ""
    if fmt == "json":
        failing = [r for r in json.loads(out)["reports"] if r["status"] == "fails"]
    else:
        failing = [dict(r, witness=json.loads(r["witness"]))
                   for r in csv.DictReader(io.StringIO(out)) if r["status"] == "fails"]
    assert failing
    for r in failing:
        inputs = r["witness"]["inputs"]
        if r["law"].startswith("fiber-"):
            # an arc point (u, v, c, s) followed by translations
            (u, v, c, s), *ws = inputs
            assert isinstance(c, float) and isinstance(s, float)
            inputs = [u, v, *ws]
        assert all(_is_coordinates(x) for x in inputs), r["law"]


def test_zero_divisor_witness_round_trip(tmp_path):
    code, doc = run_cli_json(
        tmp_path, "zerodiv", "--level", "4", "--samples", "1")
    assert code == 0
    (report,) = doc["reports"]
    assert report["status"] == "fails"
    assert report["expected"] is True
    a, b = report["witness"]["inputs"]
    assert len(a) == 16 and len(b) == 16


def test_empty_report_list_is_valid_json():
    doc = ReportDocument(version=__version__, config={}, reports=[])
    doc.finalize()
    parsed = json.loads(emit(doc, "json").decode())
    assert parsed["reports"] == []
    assert parsed["overall"] == "pass"


def test_csv_has_header_plus_one_row_per_report(tmp_path):
    path = tmp_path / "out.csv"
    code = run_cli("hspace", "--instance", "s1", "--samples", "30",
                   "--format", "csv", "--output", str(path))
    assert code == 0
    rows = list(csv.reader(io.StringIO(path.read_text())))
    assert rows[0][0] == "law"
    assert len(rows) == 1 + 6  # six H-space laws


def test_json_and_csv_write_the_report_fields_in_order(tmp_path):
    # hspace s1 at --samples 30 holds in full; laws level 1 has a failing law with a witness
    for argv in (("hspace", "--instance", "s1"), ("laws", "--level", "1")):
        code, doc = run_cli_json(tmp_path, *argv, "--samples", "30")
        assert code == 0
        for r in doc["reports"]:
            assert tuple(r) == tuple(f for f in REPORT_FIELDS if f in r)
            assert set(REPORT_FIELDS) - set(r) <= {"witness"}
        path = tmp_path / "out.csv"
        assert run_cli(*argv, "--samples", "30", "--format", "csv", "--output", str(path)) == 0
        assert tuple(next(csv.reader(io.StringIO(path.read_text())))) == REPORT_FIELDS


def test_text_format_mentions_overall(capsys):
    code = run_cli("spheroid", "--instance", "s0", "--samples", "10")
    assert code == 0
    out = capsys.readouterr().out
    assert "overall=pass" in out


# --- determinism --------------------------------------------------------------------

def _strip_durations(doc):
    doc = json.loads(json.dumps(doc))
    doc["duration_ms"] = None
    doc["config"]["output"] = None
    for r in doc["reports"]:
        r["duration_ms"] = None
    return doc


def test_reports_identical_across_worker_counts(tmp_path):
    _, one = run_cli_json(
        tmp_path, "hspace", "--instance", "s3", "--mode", "float",
        "--samples", "400", "--seed", "11", "--workers", "1", name="w1.json")
    _, four = run_cli_json(
        tmp_path, "hspace", "--instance", "s3", "--mode", "float",
        "--samples", "400", "--seed", "11", "--workers", "4", name="w4.json")
    a, b = _strip_durations(one), _strip_durations(four)
    a["config"]["workers"] = b["config"]["workers"] = None
    assert a == b


def test_sampling_runs_on_one_thread(monkeypatch):
    # every product of the level-2 ladder runs on the traced kernel
    seen = set()
    original = cdalg._traced_kernel

    def traced(n):
        kernel = original(n)

        def recording(a, b):
            seen.add(threading.get_ident())
            return kernel(a, b)
        return recording

    monkeypatch.setattr(cdalg, "_traced_kernel", traced)
    assert run_cli("laws", "--level", "2", "--samples", "200", "--workers", "4") == 0
    assert seen == {threading.get_ident()}


def test_same_seed_same_bytes_modulo_duration(tmp_path):
    _, first = run_cli_json(
        tmp_path, "imaginaroid", "--instance", "s0", "--samples", "60",
        "--seed", "5", name="a.json")
    _, second = run_cli_json(
        tmp_path, "imaginaroid", "--instance", "s0", "--samples", "60",
        "--seed", "5", name="b.json")
    assert _strip_durations(first) == _strip_durations(second)


def test_env_seed_overrides_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("HOPFCHECK_SEED", "99")
    _, via_env = run_cli_json(
        tmp_path, "spheroid", "--instance", "s1", "--samples", "50",
        "--seed", "3", name="env.json")
    monkeypatch.delenv("HOPFCHECK_SEED")
    _, direct = run_cli_json(
        tmp_path, "spheroid", "--instance", "s1", "--samples", "50",
        "--seed", "99", name="direct.json")
    assert _strip_durations(via_env) == _strip_durations(direct)
    assert via_env["config"]["seed"] == 99


def test_invalid_env_seed_exits_2(monkeypatch):
    monkeypatch.setenv("HOPFCHECK_SEED", "not-a-number")
    assert run_cli("laws", "--level", "0", "--samples", "5") == 2


# --- console entry point --------------------------------------------------------------

def test_module_invocation_matches_entry_point(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "hopfcheck.cli", "laws", "--level", "1",
         "--samples", "10", "--format", "json"],
        capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["overall"] == "pass"


#: run in a child interpreter without site hooks: the modules that --version and
#: then one sampled suite load, and the suite keys of the deferred hashlib import;
#: the symbolic scalar loads with the ladder's first proof, which level 4 (the
#: benchmark's peak-memory process, `laws --level 4`) never attempts and level 3
#: does, or with the first exact diamond, whose grid rows are proved; a float
#: diamond attempts no proof.  The last suite is the ladder's or the diamond's, by
#: the probe's argument, since the module cannot be unloaded between them
IMPORT_PROBE = """
import json, sys
from hopfcheck import cli
cli.main(["--version"])
early = sorted(m for m in ("dataclasses", "inspect", "hashlib", "hopfcheck.symbolic")
               if m in sys.modules)
from hopfcheck.cdalg import law_suite
from hopfcheck.joinmul import diamond_suite
from hopfcheck.laws import imaginaroid_instance
from hopfcheck.sampling import _suite_key
law_suite(4, samples=1)
late = sorted(m for m in ("hashlib", "hopfcheck.symbolic") if m in sys.modules)
diamond_suite(imaginaroid_instance("s2"), grid=2, samples=3, mode="float")
float_diamond = "hopfcheck.symbolic" in sys.modules
if sys.argv[1] == "ladder":
    law_suite(3, samples=1)
else:
    diamond_suite(imaginaroid_instance("s2"), grid=2, samples=3, mode="exact")
proof = "hopfcheck.symbolic" in sys.modules
import hashlib
ids = ("cdalg/associativity/level-1/exact", "laws/s2/assoc/float")
same = [_suite_key(s) == int.from_bytes(hashlib.sha256(s.encode()).digest()[:8], "big")
        for s in ids]
print(json.dumps([early, late, float_diamond, proof, same]))
"""


def test_version_imports_neither_dataclasses_nor_hashlib(child_env):
    for last in ("ladder", "exact-diamond"):
        proc = subprocess.run([sys.executable, "-S", "-c", IMPORT_PROBE, last],
                              capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        version, result = proc.stdout.splitlines()
        assert version == __version__
        assert json.loads(result) == [[], ["hashlib"], False, True, [True, True]], last


def test_benchmark_constructors_keep_their_positional_form():
    problem = joinmul.DiamondProblem(*(SpherePoint.basis(2, 0),) * 4)
    evaluate = joinmul.reduced_diamond_filler(SpherePoint.basis(2, 1)).evaluate
    filler = joinmul.SquareFiller(problem, evaluate)
    assert (filler.problem, filler.evaluate) == (problem, evaluate)
    assert JoinPoint((Fraction(3, 5),), (Fraction(4, 5),)).right == (Fraction(4, 5),)
    assert SpherePoint((0.6, 0.8)).coords == (0.6, 0.8)
    config = cli.RunConfig("fibration", instance="all", samples=1, fmt="json")
    assert (config.subcommand, config.level, config.grid, config.workers) == ("fibration", 0, 64, 1)
    assert cli.run(config).overall == "pass"


def test_fiber_subcommand_exact(tmp_path):
    code, doc = run_cli_json(
        tmp_path, "fiber", "--instance", "quaternionic", "--mode", "exact",
        "--samples", "100")
    assert code == 0
    laws = {r["law"] for r in doc["reports"]}
    assert "fiber-membership" in laws and "associativity" in laws
    assert all(r["status"] != "holds-sampled" for r in doc["reports"])


def test_fibration_subcommand_all_instances(tmp_path):
    code, doc = run_cli_json(
        tmp_path, "fibration", "--instance", "all", "--samples", "60")
    assert code == 0
    prefixes = {r["instance"].split(":")[0] for r in doc["reports"]}
    assert prefixes == {"real", "complex", "quaternionic"}
