"""Correlation sums and test batteries.

Multi-lag autocorrelation sums with exponents in {1,2} (the Chowla-type
sums), the battery that enumerates every admissible lag/exponent choice up
to a budget, weighted sums against dynamical-system orbit samples (the
Sarnak-type sums and their strong form), and the Davenport-style maximum of
twisted exponential sums over a rational frequency grid.

Every sum reports a curve of partial values at ten evenly spaced checkpoint
lengths, so decay is visible, not just the final value.  The Chowla-type
sums and the Davenport scan are exact integer sums over the chunks that
``seqcore._windows`` walks, split at the checkpoints, of a SignSeq or of a
.sqz read as it goes: beside the grid, or the battery's int64 table of
running totals (checkpoints x specs), they hold O(_CHUNK) memory.  The
scan's magnitudes round as numpy's FMA kernels do, from + and * alone, so
its report has the same bits on every CPU.

Lag products are evaluated on packed bitplanes of each chunk, support
(z != 0) and sign (z < 0), one pair per shift: the product is nonzero on
the AND of the shifted supports, and negative where the XOR of the
exponent-1 factors' signs is set, so one walk serves all of a battery's
specs.  The orbit-weighted sums walk the same windows in float64: each
checkpoint slice is added along the pairwise tree of one np.sum of it, in
leaves of at most 2**16 terms, so the chunks change no bit of a curve and
these sums too hold O(_CHUNK) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, groupby, pairwise, product

import numpy as np

from .seqcore import SignSeq, _windows

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
_PAIRWISE_NODE = 1 << 16  # terms per leaf of _pairwise's walk; >= 128, np.sum's block


def _checkpoints(N: int) -> tuple[int, ...]:
    """The distinct checkpoints max(1, jN/10), j = 1..10, ascending."""
    return tuple(sorted({max(1, j * N // _CHECKPOINTS) for j in range(1, _CHECKPOINTS + 1)}))


def _check_prefix(z, N: int, max_lag: int) -> None:
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if N + max_lag > len(z):
        need = f"N + max lag = {N + max_lag}" if max_lag else f"N = {N}"
        raise ValueError(f"prefix of length {len(z)} too short: need {need}")


def _bitplanes(values: np.ndarray, shifts) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Support (!= 0) and sign (< 0) bitplanes of ``values`` shifted by each a
    in ``shifts``: bit i < values.size - max(shifts) of plane a is values[i + a],
    packed little-endian into uint64 words whose spare bits are zero."""
    size = values.size - max(shifts)

    def pack(bits: np.ndarray) -> np.ndarray:
        packed = np.packbits(bits, bitorder="little")
        return np.pad(packed, (0, -packed.size % 8)).view(np.uint64)

    support, sign = values != 0, values < 0
    return {a: (pack(support[a : a + size]), pack(sign[a : a + size])) for a in shifts}


def _popcount(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum(dtype=np.int64))


def _signed_counts(planes: dict, shifts: tuple[int, ...]) -> list[int]:
    """The exact sum over the planes' terms of prod_s z^{i_s}(n + a_s) for each
    exponent pattern on ``shifts``, at the index with bit s set where i_s = 1:
    the product is nonzero on the joint support S, and negative where the
    exponent-1 factors' signs XOR to 1.  The sign planes restricted to S are
    XORed in Gray-code order, so each pattern costs one XOR and one popcount."""
    support = np.bitwise_and.reduce([planes[a][0] for a in shifts])
    nonzero = _popcount(support)
    signs = [planes[a][1] & support for a in shifts]
    negative = np.zeros_like(support)
    sums = [nonzero] * 2 ** len(shifts)
    for step in range(1, 2 ** len(shifts)):
        negative ^= signs[(step & -step).bit_length() - 1]
        sums[step ^ (step >> 1)] = nonzero - 2 * _popcount(negative)
    return sums


def chowla_sum(z, spec: CorrelationSpec, N: int) -> CorrelationCurve:
    """(1/N') sum over n <= N' of prod_s z^{i_s}(n + a_s), a_0 = 0."""
    return BatteryEntry(spec, *_chowla_totals(z, [spec], N), 0).curve


def _chowla_totals(z, specs: list[CorrelationSpec], N: int) -> tuple[tuple[int, ...], np.ndarray]:
    """The checkpoints and the int64 (checkpoints x specs) table of exact
    running sums, in one walk of the windows of length max lag + 1: each
    buffer's bitplanes are built once, for the shifts some spec uses, and
    each run of specs on one lag set shares its support."""
    width = max(spec.max_lag for spec in specs)
    _check_prefix(z, N, width)
    shifts = sorted({0}.union(*(spec.lags for spec in specs)))
    his = _checkpoints(N)
    ones = [sum(2**s for s, i in enumerate(spec.exponents) if i == 1) for spec in specs]
    running, totals = [0] * len(specs), np.empty((len(his), len(specs)), dtype=np.int64)
    for end, buf in _windows(z, width + 1, his):
        planes = _bitplanes(buf, shifts)
        for lags, group in groupby(enumerate(specs), key=lambda item: item[1].lags):
            sums = _signed_counts(planes, (0,) + lags)
            for i, _ in group:
                running[i] += sums[ones[i]]
        del planes  # before the next buffer's are made
        if end in his:
            totals[his.index(end)] = running
    return his, totals


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


def sarnak_sum(sampler, z, N: int) -> CorrelationCurve:
    """(1/N') sum over n <= N' of f(T^n x) z(n)."""
    return strong_sarnak_sum(sampler, z, CorrelationSpec(), N)


def _pairwise(lo: int, hi: int, leaf):
    """Each leaf's leaf(lo, hi), added along numpy's float64 pairwise tree over
    terms lo..hi-1, which depends only on the length: a node of n > 128 terms
    splits after n//2 - n//2 % 8, one of at most 128 is a block of 8
    accumulators.  Leaves of at most _PAIRWISE_NODE terms come in order, so
    with np.sum as leaf the total is np.sum's, bit for bit ([hi] lists the ends)."""
    if hi - lo <= _PAIRWISE_NODE:
        return leaf(lo, hi)
    half = (hi - lo) // 2
    mid = lo + half - half % 8
    return _pairwise(lo, mid, leaf) + _pairwise(mid, hi, leaf)


def strong_sarnak_sum(sampler, z, spec: CorrelationSpec, N: int) -> CorrelationCurve:
    """Sarnak-type sum weighted by the full lag/exponent product of z, a
    SignSeq or an _SqzFile.  A sampler's ``values(lo, hi)`` returns f(T^n x)
    for n = lo+1..hi as a new float64 array.  Each checkpoint slice is added
    along the tree of one np.sum of it: a leaf's values are multiplied in
    place by each factor z(n + a) or |z(n + a)|, from the windows that end at
    the leaves, and added with np.sum.  Every factor is -1, 0 or 1, so each
    product is exact; a zero may be -0.0, which no total from +0.0 shows."""
    _check_prefix(z, N, spec.max_lag)
    slices = list(pairwise((0, *_checkpoints(N))))
    windows = _windows(z, spec.max_lag + 1,
                       [end for lo, hi in slices for end in _pairwise(lo, hi, lambda _, b: [b])])

    def leaf(lo: int, hi: int) -> float:
        terms, done = sampler.values(lo, hi), 0
        while done < terms.size:
            _, buf = next(windows)
            count = buf.size - spec.max_lag
            for a, i in zip((0,) + spec.lags, spec.exponents):
                factor = buf[a : a + count]
                terms[done : done + count] *= factor if i == 1 else np.abs(factor)
            done += count
        return float(np.sum(terms, dtype=np.float64))

    with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is refused
        sampler.values(N - 1, N)  # a sampler that cannot reach N refuses before any work
        points, total = [], 0.0
        for lo, hi in slices:
            total += _pairwise(lo, hi, leaf)
            if not math.isfinite(total):
                raise ValueError(f"weighted sum up to n = {hi} is not finite in float64")
            points.append((hi, total / hi))
    next(windows, None)  # reads a file to its end, so a bad byte past N is refused
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


@dataclass(frozen=True, eq=False, slots=True)
class BatteryEntry:
    """A spec and its curve, read on access from its column of the battery's totals."""

    spec: CorrelationSpec
    _his: tuple[int, ...]
    _totals: np.ndarray
    _column: int

    @property
    def curve(self) -> CorrelationCurve:  # Python ints: each total / hi is correctly rounded
        totals = self._totals[:, self._column].tolist()
        return CorrelationCurve(tuple((hi, t / hi) for hi, t in zip(self._his, totals)))

    @property
    def value(self) -> float:
        return int(self._totals[-1, self._column]) / self._his[-1]


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


def ch_battery(z, max_lag: int, max_r: int, N: int, tol: float) -> BatteryReport:
    """Every admissible spec's curve up to N on a SignSeq or an _SqzFile, in
    enumeration order; the final values are compared against tol."""
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
    his, totals = _chowla_totals(z, specs, N)
    entries = (BatteryEntry(spec, his, totals, i) for i, spec in enumerate(specs))
    return BatteryReport(n=N, tol=tol, entries=tuple(entries))


@dataclass(frozen=True)
class DavenportResult:
    """Grid maximum of |sum z(n) e(n theta)| / N and its decay curve."""

    max_value: float
    argmax_theta: float
    curve: tuple[tuple[int, float], ...]
    grid: int


def _magnitudes(z: np.ndarray) -> np.ndarray:
    """|z| with the bits of numpy's FMA kernels on every CPU: big * sqrt(1 + d*d),
    d = small / big of the parts' sizes, 1 + d*d rounded once, from + and * alone.
    Veltkamp's split of d gives Dekker's exact square p + e, a two-sum the exact
    s + t = 1 + p, and t + e is rounded to odd, so the last rounding sees which
    side of a tie 1 + d*d lies on (Boldo and Melquiond, IEEE Trans. Comput., 2008)."""
    re, im = np.abs(z.real), np.abs(z.imag)
    big, d = np.maximum(re, im), np.minimum(re, im)
    d /= np.where(big == 0, 1.0, big)
    hi = 134217729.0 * d  # 2**27 + 1
    hi -= hi - d  # d = hi + (d - hi), 26 bits each
    p = d * d
    e = (hi * hi - p) + 2 * hi * (d - hi) + (d - hi) * (d - hi)
    s = 1.0 + p
    t = p - (s - 1.0)  # exact, as p <= 1
    u = t + e
    v = (t - (u - (u - t))) + (e - (u - t))  # t + e - u, exactly
    odd = (v != 0) & (u.view(np.int64) & 1 == 0)
    u[odd] = np.nextafter(u[odd], np.copysign(np.inf, v[odd]))
    return big * np.sqrt(s + u)


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
    checkpoints = _checkpoints(N)
    bucket = np.zeros(grid, dtype=np.int64)
    curve = []
    for hi, part in _windows(z, 1, checkpoints):
        # zero-padded rows of length grid, term n in column n mod grid
        start = (hi - part.size + 1) % grid
        rows = np.pad(part, (start, -(start + part.size) % grid))
        bucket += rows.reshape(-1, grid).sum(axis=0, dtype=np.int64)
        if hi == checkpoints[len(curve)]:
            mags = _magnitudes(np.fft.ifft(bucket) * grid) / hi
            j = int(np.argmax(mags))
            curve.append((hi, float(mags[j])))
    return DavenportResult(
        max_value=curve[-1][1], argmax_theta=j / grid, curve=tuple(curve), grid=grid
    )
