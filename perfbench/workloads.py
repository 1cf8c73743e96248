"""The benchmark's workloads: hopfcheck CLI invocations and why each was chosen.

Every invocation runs in a fresh interpreter, as a user's shell would run
it, with `--seed <benchmark seed> --format json` appended.  Sizes are
reduced from the acceptance criteria so that several passes fit the run
length (shorter invocations also keep the machine-speed calibration taken
around each one close in time); subcommands, modes, instances and worker
counts are kept.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    label: str          # per-invocation metric cli.<label>.wall_s
    argv: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple
    #: spans the traced run must see called at least once on this workload
    required_spans: tuple


def _laws(level: int) -> Invocation:
    return Invocation(f"laws.L{level}", ("laws", "--level", str(level), "--mode", "exact",
                                         "--samples", "150", "--workers", "1"))


WORKLOADS = {w.name: w for w in (
    Workload(
        "tower-exact",
        why="ladder levels 0-4 and the level-4 zero-divisor search: sparse-int kernel "
            "products dominate, so the sign-table kernel and the census show here",
        invocations=tuple(_laws(level) for level in range(5)) + (
            Invocation("zerodiv.L4", ("zerodiv", "--level", "4", "--workers", "1")),),
        required_spans=("cdalg.mul_coeffs",)),
    Workload(
        "filler-exact",
        why="grid-16 diamond fillers: Fraction arithmetic in filler evaluation and "
            "point checks while the kernel is nearly idle, so kernel changes predict no change",
        invocations=(
            Invocation("diamond.s2", ("diamond", "--instance", "s2", "--grid", "16",
                                      "--samples", "40", "--mode", "exact",
                                      "--workers", "1")),),
        required_spans=("joinmul.filler_eval",)),
    Workload(
        "join-exact",
        why="s7 H-space and all fibrations in exact mode: the kernel on dense Fractions, "
            "exact join_mul_syn, its oracle and exact stereographic sampling",
        invocations=(
            Invocation("hspace.s7", ("hspace", "--instance", "s7", "--mode", "exact",
                                     "--samples", "150", "--workers", "1")),
            Invocation("fibration.all", ("fibration", "--instance", "all",
                                         "--mode", "exact", "--samples", "150",
                                         "--workers", "1"))),
        required_spans=("joinmul.join_mul_syn", "hopf.hopf_map")),
    Workload(
        "join-float",
        why="the same join commands in float mode with 2 workers: the only multi-worker "
            "path and the float kernel, where a process pool or float fast path shows",
        invocations=(
            Invocation("hspace.s7", ("hspace", "--instance", "s7", "--mode", "float",
                                     "--samples", "2000", "--workers", "2")),
            Invocation("fibration.all", ("fibration", "--instance", "all",
                                         "--mode", "float", "--samples", "1000",
                                         "--workers", "2"))),
        required_spans=("joinmul.join_mul_syn", "hopf.hopf_map")),
)}

#: every per-invocation label, for the cli.<label>.wall_s per-layer metrics
INVOCATION_LABELS = tuple(dict.fromkeys(
    inv.label for w in WORKLOADS.values() for inv in w.invocations))


def command(inv: Invocation, seed: int) -> list:
    """hopfcheck arguments of one invocation for one benchmark seed."""
    return list(inv.argv) + ["--seed", str(seed), "--format", "json"]
