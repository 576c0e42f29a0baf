"""Correlation sums and test batteries.

Multi-lag autocorrelation sums with exponents in {1,2} (the Chowla-type
sums), the battery that enumerates every admissible lag/exponent choice up
to a budget, weighted sums against dynamical-system orbit samples (the
Sarnak-type sums and their strong form), and the Davenport-style maximum of
twisted exponential sums over a rational frequency grid.

Every sum reports a curve of partial values at ten evenly spaced checkpoint
lengths, so decay is visible, not just the final value.  Every sum over n
walks those ten checkpoint slices, so beside the prefix it holds O(N/10)
memory; the Davenport scan walks each slice in chunks, reading a .sqz as
it goes, so ``davenport`` holds O(_CHUNK + grid) memory and no prefix.

Lag products are evaluated on packed bitplanes of each slice, support
(z != 0) and sign (z < 0), one pair per shift: the product is nonzero on
the AND of the shifted supports, and negative where the XOR of the
exponent-1 factors' signs is set, so every Chowla-type sum is an exact
integer count, and one walk of the slices serves all of a battery's specs.
The orbit-weighted sums multiply the sampler's values in place by each
factor of the slice's product and add each slice with one float64 np.sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, groupby, product

import numpy as np

from .seqcore import SignSeq, _chunks

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


_CHECKPOINTS = 10


def _slices(N: int):
    """The checkpoint slices (lo, hi) of n = 1..N: hi runs over the distinct
    checkpoints max(1, jN/10), j = 1..10, and lo is the one before (0 first)."""
    lo = 0
    for j in range(1, _CHECKPOINTS + 1):
        hi = max(1, (j * N) // _CHECKPOINTS)
        if hi > lo:
            yield lo, hi
            lo = hi


def _check_prefix(z: SignSeq, N: int, max_lag: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N + max_lag > len(z):
        need = f"N + max lag = {N + max_lag}" if max_lag else f"N = {N}"
        raise ValueError(f"prefix of length {len(z)} too short: need {need}")


def _bitplanes(z: SignSeq, shifts, lo: int, hi: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Support (z != 0) and sign (z < 0) bitplanes of z shifted by each a in
    ``shifts`` over the slice n = lo+1..hi: bit n-lo-1 of plane a is term
    n + a, packed little-endian into uint64 words whose spare bits are zero."""
    values = z.values[lo : hi + max(shifts)]

    def pack(bits: np.ndarray) -> np.ndarray:
        packed = np.packbits(bits, bitorder="little")
        return np.pad(packed, (0, -packed.size % 8)).view(np.uint64)

    support, sign = values != 0, values < 0
    return {a: (pack(support[a : a + hi - lo]), pack(sign[a : a + hi - lo])) for a in shifts}


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def _signed_counts(planes: dict, shifts: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """The exact sum over the slice of prod_s z^{i_s}(n + a_s), keyed by the
    exponents (i_s), for every exponent pattern on ``shifts``: the product is
    nonzero on the joint support S, and negative where the exponent-1
    factors' signs XOR to 1.  The sign planes restricted to S are XORed in
    Gray-code order, so each pattern costs one XOR and one popcount."""
    support = np.bitwise_and.reduce([planes[a][0] for a in shifts])
    nonzero = _popcount(support)
    signs = [planes[a][1] & support for a in shifts]
    negative = np.zeros_like(support)
    sums = {(2,) * len(shifts): nonzero}
    for step in range(1, 2 ** len(shifts)):
        negative ^= signs[(step & -step).bit_length() - 1]
        ones = step ^ (step >> 1)  # bit k set: factor k has exponent 1
        exponents = tuple(2 - (ones >> k & 1) for k in range(len(shifts)))
        sums[exponents] = nonzero - 2 * _popcount(negative)
    return sums


def chowla_sum(z: SignSeq, spec: CorrelationSpec, N: int) -> CorrelationCurve:
    """(1/N') sum over n <= N' of prod_s z^{i_s}(n + a_s), a_0 = 0."""
    return _chowla_curves(z, [spec], N)[0]


def _chowla_curves(z: SignSeq, specs: list[CorrelationSpec], N: int) -> list[CorrelationCurve]:
    """``chowla_sum`` of every spec in one walk of the checkpoint slices.
    Each slice's bitplanes are built once, for the shifts some spec uses,
    and each run of specs on one lag set shares its support."""
    _check_prefix(z, N, max(spec.max_lag for spec in specs))
    shifts = sorted({0}.union(*(spec.lags for spec in specs)))
    totals, points = [0] * len(specs), [[] for _ in specs]
    for lo, hi in _slices(N):
        planes = _bitplanes(z, shifts, lo, hi)
        for lags, group in groupby(enumerate(specs), key=lambda item: item[1].lags):
            sums = _signed_counts(planes, (0,) + lags)
            for i, spec in group:
                totals[i] += sums[spec.exponents]
                points[i].append((hi, totals[i] / hi))
    return [CorrelationCurve(checkpoints=tuple(curve)) for curve in points]


@dataclass(frozen=True)
class RotationSampler:
    """Circle rotation by alpha observed through cos or sin of the angle."""

    alpha: float
    x0: float = 0.0
    observable: str = "cos"

    def __post_init__(self):
        if self.observable not in ("cos", "sin"):
            raise ValueError(f"observable must be cos or sin, got {self.observable}")
        if not (math.isfinite(self.alpha) and math.isfinite(self.x0)):
            raise ValueError(f"alpha and x0 must be finite, got {self.alpha}, {self.x0}")

    def values(self, lo: int, hi: int) -> np.ndarray:
        angle = np.arange(lo + 1, hi + 1, dtype=np.float64)
        angle *= self.alpha
        angle += self.x0
        np.mod(angle, 1.0, out=angle)
        angle *= 2.0 * np.pi
        fn = np.cos if self.observable == "cos" else np.sin
        return fn(angle, out=angle)


@dataclass(frozen=True)
class PeriodicSampler:
    """Cyclic repetition of a fixed real pattern; sample(n+P) = sample(n)."""

    pattern: tuple[float, ...]

    def __post_init__(self):
        if len(self.pattern) == 0:
            raise ValueError("pattern must be nonempty")
        object.__setattr__(self, "pattern", tuple(float(v) for v in self.pattern))
        if not all(math.isfinite(v) for v in self.pattern):
            raise ValueError(f"pattern values must be finite: {self.pattern}")

    def values(self, lo: int, hi: int) -> np.ndarray:
        # sample(n) = pattern[n mod P], starting from n = lo + 1
        pat = np.roll(np.asarray(self.pattern, dtype=np.float64), -(lo + 1))
        return np.resize(pat, hi - lo)


@dataclass(frozen=True)
class SubshiftSampler:
    """Shift orbit of a stored sequence observed at the first coordinate:
    sample(n) = w(n+1), so w must be one term longer than the sum."""

    w: SignSeq

    def values(self, lo: int, hi: int) -> np.ndarray:
        if len(self.w) < hi + 1:
            raise ValueError(f"subshift sequence length {len(self.w)} < N + 1 = {hi + 1}")
        return self.w.values[lo + 1 : hi + 1].astype(np.float64)


def sarnak_sum(sampler, z: SignSeq, N: int) -> CorrelationCurve:
    """(1/N') sum over n <= N' of f(T^n x) z(n)."""
    return strong_sarnak_sum(sampler, z, CorrelationSpec(), N)


def strong_sarnak_sum(sampler, z: SignSeq, spec: CorrelationSpec, N: int) -> CorrelationCurve:
    """Sarnak-type sum weighted by the full lag/exponent product of z.  A
    sampler's ``values(lo, hi)`` returns f(T^n x) for n = lo+1..hi as a new
    float64 array; per checkpoint slice, that array is multiplied in place
    by each factor z(n + a) or |z(n + a)| and added with one float64
    np.sum.  Every factor is -1, 0 or 1, so each product is exact; a zero
    may be -0.0, which no total that starts at +0.0 shows."""
    _check_prefix(z, N, spec.max_lag)
    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is refused
        sampler.values(N - 1, N)  # a sampler that cannot reach N refuses before any work
        points, total = [], 0.0
        for lo, hi in _slices(N):
            terms = sampler.values(lo, hi)
            for a, i in zip((0,) + spec.lags, spec.exponents):
                factor = z.values[lo + a : hi + a]
                terms *= factor if i == 1 else np.abs(factor)
            total += float(np.sum(terms, dtype=np.float64))
            del terms  # before the next slice's values are made
            if not math.isfinite(total):
                raise ValueError(f"weighted sum up to n = {hi} is not finite in float64")
            points.append((hi, total / hi))
    return CorrelationCurve(checkpoints=tuple(points))


def enumerate_chowla_specs(max_lag: int, max_r: int) -> list[CorrelationSpec]:
    """All specs with lags inside {1..max_lag}, r <= max_r, exponents in
    {1,2} not all 2, in lexicographic (r, lags, exponents) order.  No lag
    set has more than max_lag lags, so r stops there."""
    return [
        CorrelationSpec(lags=lags, exponents=exps)
        for r in range(min(max_r, max_lag) + 1)
        for lags in combinations(range(1, max_lag + 1), r)
        for exps in product((1, 2), repeat=r + 1)
        if 1 in exps
    ]


@dataclass(frozen=True)
class BatteryEntry:
    spec: CorrelationSpec
    curve: CorrelationCurve

    @property
    def value(self) -> float:
        return self.curve.final


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
        ones = [e for e in self.entries if all(i == 1 for i in e.spec.exponents)]
        for prefix, family in (("", self.entries), ("ch1_", ones)):
            worst = max(family, key=lambda e: abs(e.value))
            object.__setattr__(self, prefix + "max_abs", abs(worst.value))
            object.__setattr__(self, prefix + "witness", worst.spec)
            object.__setattr__(self, prefix + "passed", abs(worst.value) < self.tol)


def ch_battery(z: SignSeq, max_lag: int, max_r: int, N: int, tol: float) -> BatteryReport:
    """Every admissible correlation spec's curve up to N, in enumeration
    order; the final values are compared against tol."""
    if max_lag < 1 or max_r < 0:
        raise ValueError(f"need max_lag >= 1 and max_r >= 0, got {max_lag}, {max_r}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    count = 0
    for r in range(min(max_r, max_lag) + 1):  # stops before the terms grow huge
        count += math.comb(max_lag, r) * (2 ** (r + 1) - 1)
        if count > BATTERY_BUDGET:
            raise ValueError(f"battery of at least {count} specs exceeds budget "
                             f"{BATTERY_BUDGET}")
    specs = enumerate_chowla_specs(max_lag, max_r)
    entries = map(BatteryEntry, specs, _chowla_curves(z, specs, N))
    return BatteryReport(n=N, tol=tol, entries=tuple(entries))


@dataclass(frozen=True)
class DavenportResult:
    """Grid maximum of |sum z(n) e(n theta)| / N and its decay curve."""

    max_value: float
    argmax_theta: float
    curve: tuple[tuple[int, float], ...]
    grid: int


def davenport_scan(z, N: int, grid: int) -> DavenportResult:
    """max over theta = j/grid of |(1/N') sum_{n<=N'} e^(2 pi i n theta) z(n)|
    at each checkpoint N', for a SignSeq or an opened .sqz (``seqcore._SqzFile``).

    theta ranges over the rational grid, so the sum depends on n only
    through n mod grid; exact integer residue-class sums are accumulated
    chunk by chunk within each checkpoint slice, and at each checkpoint a
    size-``grid`` inverse DFT evaluates all theta at once, which is exact to
    rounding and equivalent to direct evaluation.  The sums are exact, so
    where the chunks fall does not change a bit of the result.
    """
    if grid < 100:
        raise ValueError(f"grid must be >= 100, got {grid}")
    _check_prefix(z, N, 0)
    checkpoints = [hi for _, hi in _slices(N)]
    bucket = np.zeros(grid, dtype=np.int64)
    curve = []
    lo = 0  # terms summed so far
    for chunk in _chunks(z, N):
        while chunk.size:
            hi = checkpoints[len(curve)]
            part, chunk = chunk[: hi - lo], chunk[hi - lo :]
            # z(lo+1..lo+len(part)) laid out from column (lo+1) mod grid of
            # zero-padded rows of length grid: column c sums n = c (mod grid)
            start = (lo + 1) % grid
            rows = np.pad(part, (start, -(start + part.size) % grid))
            bucket += rows.reshape(-1, grid).sum(axis=0, dtype=np.int64)
            lo += part.size
            if lo == hi:
                mags = np.abs(np.fft.ifft(bucket) * grid) / hi
                j = int(np.argmax(mags))
                curve.append((hi, float(mags[j])))
    return DavenportResult(
        max_value=curve[-1][1], argmax_theta=j / grid, curve=tuple(curve), grid=grid
    )
