"""Binary entropy, its branch inverses, and the entropy-pair bounds.

All entropies are in bits (base-2 logarithms).  H(x) = -x log2 x -
(1-x) log2 (1-x) is increasing on [0, 1/2] and decreasing on [1/2, 1], so
each branch has an inverse, computed here by plain bisection.  The pair
bounds answer: given the entropy x of the squared word, how large or small
can the entropy of the signed word be?

- full_entropy_upper(x) = x + (upper-branch inverse of H at x), capped at
  log2(3) from x = H(2/3) on: the largest possible entropy of a three-letter
  word whose square has entropy x.
- full_entropy_lower(x) = x + (lower-branch inverse of H at x): a strict
  lower bound when every signed version of every square block occurs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

LOG2_3 = math.log2(3.0)
H_TWO_THIRDS = LOG2_3 - 2.0 / 3.0  # H(2/3)

_BISECTION_TOL = 1e-12


def binary_entropy(x: float) -> float:
    """H(x) in bits; endpoints map to 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def entropy_inverse(y: float, branch: str) -> float:
    """The x with H(x) = y on the requested branch: 'lower' returns
    x <= 1/2, 'upper' returns x >= 1/2.  Bisection to 1e-12 in x."""
    if not 0.0 <= y <= 1.0:
        raise ValueError(f"y must be in [0,1], got {y}")
    if branch not in ("lower", "upper"):
        raise ValueError(f"branch must be 'lower' or 'upper', got {branch!r}")
    if y == 0.0:
        return 0.0 if branch == "lower" else 1.0
    if y == 1.0:
        return 0.5
    # H increases on [0, 1/2] and decreases on [1/2, 1]
    lower = branch == "lower"
    lo, hi = (0.0, 0.5) if lower else (0.5, 1.0)
    while hi - lo >= _BISECTION_TOL:  # 39 halvings of the width-1/2 branch
        mid = (lo + hi) / 2.0
        h = binary_entropy(mid)
        if (h < y) if lower else (h > y):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def full_entropy_lower(x: float) -> float:
    """x + lower-branch inverse of H at x."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    return x + entropy_inverse(x, "lower")


def full_entropy_upper(x: float) -> float:
    """x + upper-branch inverse of H at x for x < H(2/3), else log2(3);
    continuous at the junction."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    if x >= H_TWO_THIRDS:
        return LOG2_3
    return x + entropy_inverse(x, "upper")


@dataclass(frozen=True)
class EntropyPair:
    """(entropy of the squared word, entropy of the signed word), in bits."""

    h_square: float
    h_full: float

    def __post_init__(self):
        eps = 1e-12
        if not -eps <= self.h_square <= 1.0 + eps:
            raise ValueError(f"h_square must be in [0,1], got {self.h_square}")
        if not -eps <= self.h_full <= LOG2_3 + eps:
            raise ValueError(f"h_full must be in [0, log2 3], got {self.h_full}")
        cap = min(self.h_square + 1.0, LOG2_3)
        if not self.h_square - eps <= self.h_full <= cap + eps:
            raise ValueError(
                f"pair ({self.h_square}, {self.h_full}) violates "
                f"h_square <= h_full <= min(h_square + 1, log2 3)"
            )


@dataclass(frozen=True)
class PairAuditVerdict:
    passed: bool
    upper_margin: float  # full_entropy_upper(h_square) - h_full
    lower_margin: float | None  # h_full - full_entropy_lower(h_square), if checked
    equality_flag: bool  # h_full sits on the upper curve (only legal at log2 3)


_EQ_TOL = 1e-9


def audit_entropy_pair(pair: EntropyPair, recurrent_closed: bool) -> PairAuditVerdict:
    """Check h_full <= full_entropy_upper(h_square); the equality flag is
    raised only when the pair sits on the curve at h_full = log2(3) (the
    only equality point away from the degenerate corners).  When
    ``recurrent_closed`` is set (every signed version of every square block
    occurs), additionally check the strict lower bound
    full_entropy_lower(h_square) < h_full.  Margins are reported; no minimum
    margin is enforced."""
    upper = full_entropy_upper(pair.h_square)
    upper_margin = upper - pair.h_full
    equality = abs(upper_margin) <= _EQ_TOL and abs(pair.h_full - LOG2_3) <= _EQ_TOL
    passed = pair.h_full <= upper + _EQ_TOL
    lower_margin = None
    if recurrent_closed:
        lower_margin = pair.h_full - full_entropy_lower(pair.h_square)
        if lower_margin <= 0.0:
            passed = False
    return PairAuditVerdict(
        passed=passed,
        upper_margin=upper_margin,
        lower_margin=lower_margin,
        equality_flag=equality,
    )


def sign_extension_entropy(d: float) -> tuple[float, float]:
    """Entropy pair for a coin with 1-density d and its sign-randomized
    three-letter extension (d/2, 1-d, d/2): returns (H(d), H(d) + d).

    The identity h_extended = h_base + d is exact; the direct three-letter
    computation is checked against it to 1e-12.
    """
    if not 0.0 <= d <= 1.0:
        raise ValueError(f"d must be in [0,1], got {d}")
    h_base = binary_entropy(d)
    h_ext = 0.0
    for p in (d / 2.0, 1.0 - d, d / 2.0):
        if p > 0.0:
            h_ext -= p * math.log2(p)
    if abs(h_ext - (h_base + d)) > 1e-12:
        raise AssertionError(
            f"extension entropy identity violated at d={d}: {h_ext} vs {h_base + d}"
        )
    return h_base, h_ext
