"""Golden CSV and text output: the bytes `--format csv` and `--format text`
write, with the duration fields masked, compared with tests/golden/formats.json.

The JSON goldens (test_golden.py) compare parsed documents, so they do not
see column order, CSV quoting or the text layout; these cases do.  Two of
them are float runs with zero tolerance, so their rows carry witnesses.

Regenerate the file only when an output format is meant to change:

    PYTHONPATH=src python tests/test_formats.py --record
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from hopfcheck.cli import main

GOLDEN = Path(__file__).parent / "golden" / "formats.json"
CASES = [argv + ("--samples", "8", "--seed", "3") for argv in (
    ("laws", "--level", "3", "--mode", "float", "--tolerance", "0"),
    ("hspace", "--instance", "s3", "--mode", "float", "--tolerance", "0"),
    ("zerodiv", "--level", "4"),
    ("fibration", "--instance", "complex"),
)]
FORMATS = ("csv", "text")

# a CSV row's duration_ms is the only number followed by the expected flag;
# the text header carries the run's duration in whole milliseconds
_MASKS = {"csv": (re.compile(r",[0-9.e+-]+,(True|False)(,|\r?$)", re.M), r",-,\1\2"),
          "text": (re.compile(r"\(\d+ ms\)"), "(- ms)")}


def run_case(argv: tuple, fmt: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv) + ["--format", fmt])
    pattern, repl = _MASKS[fmt]
    return {"exit": code, "output": pattern.sub(repl, buf.getvalue())}


def _key(argv: tuple, fmt: str) -> str:
    return " ".join(argv + ("--format", fmt))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("HOPFCHECK_SEED", raising=False)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(_key(argv, fmt) for argv in CASES for fmt in FORMATS)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_output_matches_golden(argv, fmt, golden):
    assert run_case(argv, fmt) == golden[_key(argv, fmt)]


def test_masks_hide_only_durations():
    csv_pattern, _ = _MASKS["csv"]
    row = ('"oracle-equivalence[glue,glue]",s3,fails,8,0.0,1e-16,3,12.5,False,'
           '"{""inputs"": [[1.0, 2]], ""lhs"": 3, ""rhs"": 4}"')
    assert csv_pattern.sub(r",-,\1\2", row) == row.replace(",12.5,", ",-,")
    assert csv_pattern.findall("law,i,holds-exact,8,,0.0,3,0.25,True,\r\n") == [("True", ",")]


def record():
    data = {_key(argv, fmt): run_case(argv, fmt) for argv in CASES for fmt in FORMATS}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(data)} cases")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_formats.py --record")
    record()
