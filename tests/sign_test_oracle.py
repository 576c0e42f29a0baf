"""Loop-form oracle for the randomized-sign extension test.

Shares no code with ``chowla_lab.empirics``.  Windows are counted with
``collections.Counter`` over tuples, the squared counts come from a second
count of the squared windows, and every sign pattern of every audited squared
block is visited one at a time, in the order the report lists violations and
breaks witness ties: length, then the squared block read last letter first,
then ``itertools.product`` order over the support (-1 before 1, first
support position slowest).
"""

import itertools
from collections import Counter


def sign_test(values, k, tol, audit_factor=2.0):
    """(passed, max_violation, witness letters or None, violations as
    (letters, deviation) tuples, audited squared blocks) for a list of
    letters in {-1, 0, 1}."""
    max_violation, witness, violations, audited = 0.0, None, [], 0
    squares = [v * v for v in values]
    for ell in range(1, k + 1):
        denom = len(values) - ell + 1
        counts = Counter(tuple(values[i : i + ell]) for i in range(denom))
        squared_counts = Counter(tuple(squares[i : i + ell]) for i in range(denom))
        for squared in sorted(squared_counts, key=lambda b: b[::-1]):
            freq2 = squared_counts[squared] / denom
            if freq2 <= audit_factor * tol:
                continue
            audited += 1
            support = [i for i, v in enumerate(squared) if v]
            target = freq2 / 2 ** len(support)
            base = list(squared)
            for signs in itertools.product((-1, 1), repeat=len(support)):
                for pos, sign in zip(support, signs):
                    base[pos] = sign
                block = tuple(base)
                deviation = abs(counts[block] / denom - target)
                if deviation > max_violation:
                    max_violation, witness = deviation, block
                if deviation > tol:
                    violations.append((block, deviation))
    return max_violation <= tol, max_violation, witness, tuple(violations), audited
