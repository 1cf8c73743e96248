"""Record the reference report documents the correctness gate compares against.

    python3 perfbench/record.py [WORKLOAD ...]

Runs every invocation of each workload (all by default) for the recorded
seeds, strips `duration_ms`, and writes reference/<workload>.json.  Run it
only on a commit whose reports are known to be right (the references were
recorded at the seed commit); `micro.py --record` does the same for the
microbenchmark outputs.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile

from check import REFERENCE_DIR, strip_durations
from run import OUT, child_env, spawn
from workloads import WORKLOADS, command

#: the CLI default seed and one held-out seed
SEEDS = (0, 7)


def record(name: str, env: dict, scratch) -> dict:
    invocations = []
    for inv in WORKLOADS[name].invocations:
        docs = {}
        codes = set()
        for seed in SEEDS:
            code, out, wall, _, _ = spawn([sys.executable, "-m", "hopfcheck.cli"]
                                          + command(inv, seed), env, scratch)
            codes.add(code)
            docs[str(seed)] = strip_durations(json.loads(out))
            print(f"{name} {inv.label} seed {seed}: exit {code}, {wall:.2f} s", flush=True)
        if len(codes) != 1:
            raise SystemExit(f"{inv.label}: exit code depends on the seed: {codes}")
        invocations.append({"label": inv.label, "argv": list(inv.argv),
                            "exit_code": codes.pop(), "docs": docs})
    return {"workload": name, "seeds": list(SEEDS), "invocations": invocations}


def main(names) -> int:
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=OUT)
    try:
        env = child_env()
        for name in names or sorted(WORKLOADS):
            ref = record(name, env, scratch)
            (REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref, indent=1) + "\n")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
