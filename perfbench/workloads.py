"""The benchmark's workloads: chowla-lab CLI pipelines at paper scale.

Each workload is a sequence of CLI commands as a README user runs them, each
command in a fresh process, over prefixes of N symbols.  Alongside the
commands a workload names the exact oracles its prefixes must satisfy, the
seed-independent invariants its reports must satisfy, and the single calls
whose peak memory the traced run measures in a subprocess of their own.

Only ``symbolic-blocks`` depends on the workload seed: it drives ``--seed`` of
the ``bernoulli`` and ``coded`` generators.  The number-theoretic workloads
have no random input, so every seed gives them the same commands.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

N7 = 10**7
N8 = 10**8

# Exact partial sums (OEIS A084237 / A090410): Mertens M(x) and Liouville L(x).
MERTENS_1E7 = 1037
MERTENS_1E8 = 1928
LIOUVILLE_1E8 = -3884

ALPHA = "0.41421356"
Q, M, ELL, K = 5, 4, 2, 10_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and what a correct run of it looks like."""

    argv: tuple[str, ...]
    out: str | None = None  # .sqz file the command writes
    report: bool = True  # stdout is a JSON report; otherwise one status line
    expect_rc: int = 0
    # Seed-independent check on the parsed report: an error message or None.
    check: Callable[[dict], str | None] | None = None

    @property
    def name(self) -> str:
        if self.argv[0] == "toeplitz":
            return f"toeplitz-{self.argv[1]}"
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    seeded: bool
    why: str
    commands: Callable[[int], tuple[Command, ...]]
    oracles: dict[str, int]  # .sqz file -> exact sum of its symbols
    # case name -> builder run inside the case subprocess, returning
    # (function, args, symbols); inputs are loaded before measuring starts.
    peak_cases: dict[str, Callable[[], tuple]]


def _generate(kind: str, n: int, out: str, *extra: str) -> Command:
    return Command(("generate", "--kind", kind, *extra, "--n", str(n), "--out", out),
                   out=out, report=False)


def _profiles_whole_prefix(report: dict) -> str | None:
    length = report["results"]["prefix_length"]
    return None if length == N7 else f"entropy profiled {length} symbols, expected {N7}"


def _has_length2_violation(report: dict) -> str | None:
    # Acceptance criterion 6: the coded prefix fails the sign test at length 2.
    if any(len(v["block"]) == 2 for v in report["results"]["violations"]):
        return None
    return "coded prefix shows no length-2 sign-test violation"


def _mobius_battery(seed: int) -> tuple[Command, ...]:
    return (
        _generate("mobius", N7, "m.sqz"),
        Command(("chowla", "--in", "m.sqz", "--max-lag", "6", "--max-r", "3")),
        Command(("sarnak", "--in", "m.sqz", "--system", "rotation", "--alpha", ALPHA)),
        Command(("davenport", "--in", "m.sqz", "--grid", "1000")),
        Command(("toeplitz", "analyze", "--q", str(Q), "--m", str(M), "--ell", str(ELL),
                 "--k", str(K), "--ref", "m.sqz")),
    )


def _symbolic_blocks(seed: int) -> tuple[Command, ...]:
    return (
        _generate("bernoulli", N7, "b.sqz", "--probs", "0.25,0.5,0.25", "--seed", str(seed)),
        _generate("coded", N7, "c.sqz", "--k0", "2", "--seed", str(seed)),
        Command(("entropy", "--in", "b.sqz", "--n-max", "20"),
                check=_profiles_whole_prefix),
        Command(("hat-test", "--in", "b.sqz", "--k", "12", "--tol", "0.001")),
        Command(("hat-test", "--in", "c.sqz", "--k", "8", "--tol", "0.01"),
                expect_rc=1, check=_has_length2_violation),
        Command(("determinize", "--in", "b.sqz", "--epsilon", "0.1", "--n-block", "20",
                 "--big-n", "100", "--out", "d.sqz"), out="d.sqz"),
    )


def _sieve_io(seed: int) -> tuple[Command, ...]:
    return (
        _generate("mobius", N8, "m8.sqz"),
        _generate("liouville", N8, "l8.sqz"),
        Command(("davenport", "--in", "m8.sqz", "--grid", "1000")),
        Command(("toeplitz", "build", "--q", str(Q), "--ref", "l8.sqz", "--out", "t8.sqz"),
                out="t8.sqz", report=False),
    )


def _rotation_sarnak():
    import chowla_lab as cl

    z = cl.read_sqz("m.sqz")
    sampler = cl.RotationSampler(alpha=float(ALPHA), x0=0.0, observable="cos")
    return cl.sarnak_sum, (sampler, z, len(z)), len(z)


def _complexity_profile():
    import chowla_lab as cl

    w = cl.read_sqz("b.sqz")
    return cl.complexity_profile, (w, 20), len(w)


def _determinize_step():
    import chowla_lab as cl

    u = cl.read_sqz("b.sqz")
    params = cl.DeterminizeParams(epsilon=0.1, n_block=20, big_n=100)
    return cl.determinize_step, (u, params), len(u)


def _call(name: str, *args, symbols: int):
    def build():
        import chowla_lab as cl

        return getattr(cl, name), args, symbols
    return build


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mobius-battery",
            n=N7,
            seeded=False,
            why="correlations dominates: the 424-spec Chowla battery on a 10^7 Mobius prefix; "
            "sieve and .sqz I/O are a small share, and symbolicgen and empirics are bypassed",
            commands=_mobius_battery,
            oracles={"m.sqz": MERTENS_1E7},
            peak_cases={
                "numbergen.mobius_prefix": _call("mobius_prefix", N7, symbols=N7),
                "seqcore.read_sqz": _call("read_sqz", "m.sqz", symbols=N7),
                "correlations.sarnak_sum": _rotation_sarnak,
                "toeplitz.classify_initials": _call(
                    "classify_initials", Q, K * Q**M, symbols=K * Q**M),
            },
        ),
        Workload(
            name="symbolic-blocks",
            n=N7,
            seeded=True,
            why="empirics and the symbolicgen recoding do the work on seeded 10^7 prefixes "
            "(window-code paths); correlations and numbergen are bypassed",
            commands=_symbolic_blocks,
            oracles={},
            peak_cases={
                "seqcore.read_sqz": _call("read_sqz", "b.sqz", symbols=N7),
                "empirics.complexity_profile": _complexity_profile,
                "symbolicgen.determinize_step": _determinize_step,
            },
        ),
        Workload(
            name="sieve-io",
            n=N8,
            seeded=False,
            why="numbergen sieves, .sqz writes and reads, and classify_initials at 10^8 with "
            "only a cheap kernel; memory-bound, working set about 2 GB; empirics is bypassed",
            commands=_sieve_io,
            oracles={"m8.sqz": MERTENS_1E8, "l8.sqz": LIOUVILLE_1E8},
            peak_cases={
                "numbergen.mobius_prefix": _call("mobius_prefix", N8, symbols=N8),
                "numbergen.liouville_prefix": _call("liouville_prefix", N8, symbols=N8),
                "seqcore.read_sqz": _call("read_sqz", "m8.sqz", symbols=N8),
                "toeplitz.classify_initials": _call("classify_initials", Q, N8, symbols=N8),
            },
        ),
    )
}
