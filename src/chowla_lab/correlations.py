"""Correlation sums and test batteries.

Multi-lag autocorrelation sums with exponents in {1,2} (the Chowla-type
sums), the battery that enumerates every admissible lag/exponent choice up
to a budget, weighted sums against dynamical-system orbit samples (the
Sarnak-type sums and their strong form), and the Davenport-style maximum of
twisted exponential sums over a rational frequency grid.

Every sum reports a curve of partial values at ten evenly spaced checkpoint
lengths, so decay is visible, not just the final value.

Lag products are evaluated on packed bitplanes of the prefix, support
(z != 0) and sign (z < 0), one pair per shift: the product is nonzero on
the AND of the shifted supports, and negative where the XOR of the
exponent-1 factors' signs is set, so every sum is an exact integer count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .seqcore import SignSeq

BATTERY_BUDGET = 100_000


@dataclass(frozen=True)
class CorrelationSpec:
    """Lags a_1 < ... < a_r (r >= 0) and exponents (i_0, ..., i_r) in {1,2}."""

    lags: tuple[int, ...] = ()
    exponents: tuple[int, ...] = (1,)

    def __post_init__(self):
        lags = tuple(int(a) for a in self.lags)
        exps = tuple(int(i) for i in self.exponents)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "exponents", exps)
        if any(a < 1 for a in lags):
            raise ValueError(f"lags must be >= 1: {lags}")
        if any(b <= a for a, b in zip(lags, lags[1:])):
            raise ValueError(f"lags must be strictly increasing: {lags}")
        if len(exps) != len(lags) + 1:
            raise ValueError(
                f"need {len(lags) + 1} exponents for {len(lags)} lags, got {len(exps)}"
            )
        if any(i not in (1, 2) for i in exps):
            raise ValueError(f"exponents must be in {{1,2}}: {exps}")

    @property
    def max_lag(self) -> int:
        return self.lags[-1] if self.lags else 0

    @property
    def all_squared(self) -> bool:
        return all(i == 2 for i in self.exponents)

    def label(self) -> str:
        lags = ",".join(str(a) for a in self.lags)
        exps = ",".join(str(i) for i in self.exponents)
        return f"lags=({lags}) exponents=({exps})"


@dataclass(frozen=True)
class CorrelationCurve:
    """Partial normalized sums (N', value) at increasing checkpoints."""

    checkpoints: tuple[tuple[int, float], ...]

    @property
    def final(self) -> float:
        return self.checkpoints[-1][1]

    @property
    def final_n(self) -> int:
        return self.checkpoints[-1][0]


_CHECKPOINTS = 10


def _checkpoint_bounds(N: int) -> list[int]:
    bounds = sorted({max(1, (j * N) // _CHECKPOINTS) for j in range(1, _CHECKPOINTS + 1)})
    if bounds[-1] != N:
        bounds.append(N)
    return bounds


def _curve_from_terms(terms: np.ndarray, N: int) -> CorrelationCurve:
    bounds = _checkpoint_bounds(N)
    points = []
    total = 0.0
    prev = 0
    for b in bounds:
        total += float(np.sum(terms[prev:b], dtype=np.float64))
        points.append((b, total / b))
        prev = b
    return CorrelationCurve(checkpoints=tuple(points))


def _bitplanes(z: SignSeq, shifts, N: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Support (z != 0) and sign (z < 0) bitplanes of z shifted by each a in
    ``shifts``: bit n-1 of plane a is term n + a, n = 1..N, packed
    little-endian into uint64 words whose bits past N are zero."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    needed = N + max(shifts)
    if needed > len(z):
        raise ValueError(
            f"prefix of length {len(z)} too short: need N + max lag = {needed}"
        )
    values = z.values[:needed]
    support = values != 0
    sign = values < 0
    nbytes = -(-N // 64) * 8

    def pack(bits: np.ndarray) -> np.ndarray:
        words = np.zeros(nbytes, dtype=np.uint8)
        packed = np.packbits(bits, bitorder="little")
        words[: packed.size] = packed
        return words.view(np.uint64)

    return {a: (pack(support[a : a + N]), pack(sign[a : a + N])) for a in shifts}


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def _joint_support(planes: dict, shifts: tuple[int, ...]) -> np.ndarray:
    """S: the bits where every factor z(n + a), a in ``shifts``, is nonzero."""
    support = planes[shifts[0]][0].copy()
    for a in shifts[1:]:
        support &= planes[a][0]
    return support


def _product_terms(z: SignSeq, spec: CorrelationSpec, N: int) -> np.ndarray:
    """prod_s z^{i_s}(n + a_s) for n = 1..N as int8: nonzero on the joint
    support S, and -1 on the bits of S where the exponent-1 factors' signs
    XOR to 1."""
    shifts = (0,) + spec.lags
    planes = _bitplanes(z, shifts, N)
    support = _joint_support(planes, shifts)
    negative = np.zeros_like(support)
    for a, i in zip(shifts, spec.exponents):
        if i == 1:
            negative ^= planes[a][1]
    negative &= support
    support, negative = (
        np.unpackbits(plane.view(np.uint8), count=N, bitorder="little").view(np.int8)
        for plane in (support, negative)
    )
    return support - 2 * negative


def chowla_sum(z: SignSeq, spec: CorrelationSpec, N: int) -> CorrelationCurve:
    """(1/N') sum over n <= N' of prod_s z^{i_s}(n + a_s), a_0 = 0."""
    return _curve_from_terms(_product_terms(z, spec, N), N)


class OrbitSampler:
    """Produces the real weight sequence f(T^n x), n = 1..N."""

    def values(self, N: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class RotationSampler(OrbitSampler):
    """Circle rotation by alpha observed through cos or sin of the angle."""

    alpha: float
    x0: float = 0.0
    observable: str = "cos"

    def __post_init__(self):
        if self.observable not in ("cos", "sin"):
            raise ValueError(f"observable must be cos or sin, got {self.observable}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.x0)):
            raise ValueError(f"alpha and x0 must be finite, got {self.alpha}, {self.x0}")

    def values(self, N: int) -> np.ndarray:
        angle = np.arange(1, N + 1, dtype=np.float64)
        angle *= self.alpha
        angle += self.x0
        np.mod(angle, 1.0, out=angle)
        angle *= 2.0 * np.pi
        fn = np.cos if self.observable == "cos" else np.sin
        return fn(angle, out=angle)


@dataclass(frozen=True)
class PeriodicSampler(OrbitSampler):
    """Cyclic repetition of a fixed real pattern; sample(n+P) = sample(n)."""

    pattern: tuple[float, ...]

    def __post_init__(self):
        if len(self.pattern) == 0:
            raise ValueError("pattern must be nonempty")
        object.__setattr__(self, "pattern", tuple(float(v) for v in self.pattern))
        if not all(math.isfinite(v) for v in self.pattern):
            raise ValueError(f"pattern values must be finite: {self.pattern}")

    def values(self, N: int) -> np.ndarray:
        pat = np.asarray(self.pattern, dtype=np.float64)
        idx = np.arange(1, N + 1, dtype=np.int64) % pat.size
        return pat[idx]


@dataclass(frozen=True)
class SubshiftSampler(OrbitSampler):
    """Shift orbit of a stored sequence observed at the first coordinate:
    sample(n) = w(n+1), so w must be one term longer than the sum."""

    w: SignSeq

    def values(self, N: int) -> np.ndarray:
        if len(self.w) < N + 1:
            raise ValueError(f"subshift sequence length {len(self.w)} < N + 1 = {N + 1}")
        return self.w.values[1 : N + 1].astype(np.float64)


def sarnak_sum(sampler: OrbitSampler, z: SignSeq, N: int) -> CorrelationCurve:
    """(1/N') sum over n <= N' of f(T^n x) z(n)."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > len(z):
        raise ValueError(f"N = {N} exceeds prefix length {len(z)}")
    terms = sampler.values(N) * z.values[:N]
    return _curve_from_terms(terms, N)


def strong_sarnak_sum(
    sampler: OrbitSampler, z: SignSeq, spec: CorrelationSpec, N: int
) -> CorrelationCurve:
    """Sarnak-type sum weighted by the full lag/exponent product of z."""
    return _curve_from_terms(sampler.values(N) * _product_terms(z, spec, N), N)


def enumerate_chowla_specs(max_lag: int, max_r: int) -> list[CorrelationSpec]:
    """All specs with lags inside {1..max_lag}, r <= max_r, exponents in
    {1,2} not all 2, in lexicographic (r, lags, exponents) order."""
    from itertools import combinations, product

    specs = []
    for r in range(0, max_r + 1):
        for lags in combinations(range(1, max_lag + 1), r):
            for exps in product((1, 2), repeat=r + 1):
                if all(i == 2 for i in exps):
                    continue
                specs.append(CorrelationSpec(lags=lags, exponents=exps))
    return specs


@dataclass(frozen=True)
class BatteryEntry:
    spec: CorrelationSpec
    value: float


@dataclass(frozen=True)
class BatteryReport:
    """Per-spec values, worst offenders, and pass/fail for both families:
    the full battery (exponents in {1,2}, not all 2) and the exponent-1-only
    subfamily."""

    n: int
    tol: float
    entries: tuple[BatteryEntry, ...]
    passed: bool = field(init=False)
    max_abs: float = field(init=False)
    witness: CorrelationSpec = field(init=False)
    ch1_passed: bool = field(init=False)
    ch1_max_abs: float = field(init=False)
    ch1_witness: CorrelationSpec = field(init=False)

    def __post_init__(self):
        worst = max(self.entries, key=lambda e: abs(e.value))
        ones = [e for e in self.entries if all(i == 1 for i in e.spec.exponents)]
        worst1 = max(ones, key=lambda e: abs(e.value))
        object.__setattr__(self, "max_abs", abs(worst.value))
        object.__setattr__(self, "witness", worst.spec)
        object.__setattr__(self, "passed", abs(worst.value) < self.tol)
        object.__setattr__(self, "ch1_max_abs", abs(worst1.value))
        object.__setattr__(self, "ch1_witness", worst1.spec)
        object.__setattr__(self, "ch1_passed", abs(worst1.value) < self.tol)


def ch_battery(z: SignSeq, max_lag: int, max_r: int, N: int, tol: float) -> BatteryReport:
    """Evaluate every admissible correlation spec at length N and compare
    the final values against tol.  Deterministic enumeration order."""
    if max_lag < 1 or max_r < 0:
        raise ValueError(f"need max_lag >= 1 and max_r >= 0, got {max_lag}, {max_r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    count = sum(
        math.comb(max_lag, r) * (2 ** (r + 1) - 1) for r in range(0, max_r + 1)
    )
    if count > BATTERY_BUDGET:
        raise ValueError(f"battery of {count} specs exceeds budget {BATTERY_BUDGET}")
    planes = _bitplanes(z, range((max_lag if max_r else 0) + 1), N)
    entries = []
    for lags, group in groupby(enumerate_chowla_specs(max_lag, max_r), key=lambda s: s.lags):
        # every exponent pattern on this lag set shares the support S; the
        # sign planes restricted to S are XORed in Gray-code order, so each
        # pattern costs one XOR and one popcount
        shifts = (0,) + lags
        support = _joint_support(planes, shifts)
        nonzero = _popcount(support)
        signs = [planes[a][1] & support for a in shifts]
        negative = np.zeros_like(support)
        sums = {}  # bit k of the key set: factor k has exponent 1
        for step in range(1, 2 ** len(shifts)):
            negative ^= signs[(step & -step).bit_length() - 1]
            sums[step ^ (step >> 1)] = nonzero - 2 * _popcount(negative)
        for spec in group:
            ones = sum(1 << k for k, i in enumerate(spec.exponents) if i == 1)
            entries.append(BatteryEntry(spec=spec, value=sums[ones] / N))
    return BatteryReport(n=N, tol=tol, entries=tuple(entries))


@dataclass(frozen=True)
class DavenportResult:
    """Grid maximum of |sum z(n) e(n theta)| / N and its decay curve."""

    max_value: float
    argmax_theta: float
    curve: tuple[tuple[int, float], ...]
    grid: int


def davenport_scan(z: SignSeq, N: int, grid: int) -> DavenportResult:
    """max over theta = j/grid of |(1/N') sum_{n<=N'} e^(2 pi i n theta) z(n)|
    at each checkpoint N'.

    theta ranges over the rational grid, so the sum depends on n only
    through n mod grid; residue-class sums are accumulated per checkpoint
    segment and a size-``grid`` inverse DFT evaluates all theta at once,
    which is exact to rounding and equivalent to direct evaluation.
    """
    if grid < 100:
        raise ValueError(f"grid must be >= 100, got {grid}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N > len(z):
        raise ValueError(f"N = {N} exceeds prefix length {len(z)}")
    values = z.values
    bucket = np.zeros(grid, dtype=np.float64)
    curve = []
    best = (0.0, 0.0)
    prev = 0
    for b in _checkpoint_bounds(N):
        n = np.arange(prev + 1, b + 1, dtype=np.int64) % grid
        seg = np.bincount(n, weights=values[prev:b].astype(np.float64), minlength=grid)
        bucket += seg
        mags = np.abs(np.fft.ifft(bucket) * grid) / b
        j = int(np.argmax(mags))
        curve.append((b, float(mags[j])))
        best = (float(mags[j]), j / grid)
        prev = b
    return DavenportResult(
        max_value=best[0], argmax_theta=best[1], curve=tuple(curve), grid=grid
    )
