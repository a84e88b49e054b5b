"""Closed-form predictors and enumerators for interpolation dimension counts.

Covers the expected-codimension predictor with its five exceptional
patterns (degrees other than 2), the delta-profile criterion that settles
every degree-2 case, exhaustive regeneration of the degree-2 exception
tables, and the bounded-part partition enumerations that drive the cubic
verification sweeps in P^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import comb

# the five deficient patterns for d != 2, keyed by (n, d, sorted a-profile)
EXCEPTION_PATTERNS = {
    (2, 4, (2,) * 5): "a",
    (3, 4, (3,) * 9): "b",
    (3, 4, (3,) * 8 + (2,)): "b'",
    (4, 3, (4,) * 7): "c",
    (4, 4, (4,) * 14): "d",
}


@dataclass(frozen=True)
class Prediction:
    expected_codim: int
    exceptional: bool
    exception_id: str  # 'a', 'b', "b'", 'c', 'd', 'quadric-delta' or 'none'

    def to_json(self):
        return {
            "expected_codim": self.expected_codim,
            "exceptional": self.exceptional,
            "exception_id": self.exception_id,
        }


@dataclass(frozen=True)
class QuadricPrediction:
    independent: bool
    max_delta: int
    which_condition: int | None  # 1, 2 or None (not independent)
    degree: int
    expected_codim: int

    def to_json(self):
        return {
            "independent": self.independent,
            "max_delta": self.max_delta,
            "which_condition": self.which_condition,
            "degree": self.degree,
            "expected_codim": self.expected_codim,
        }


def _check_entries(n, a) -> tuple:
    """The profile as a tuple; ValueError unless each entry lies in [0, n]."""
    a = tuple(a)
    if any(x < 0 or x > n for x in a):
        raise ValueError(f"profile entries must lie in [0, {n}]: {a}")
    return a


def _check_sorted(profile, what):
    if any(profile[i] < profile[i + 1] for i in range(len(profile) - 1)):
        raise ValueError(f"{what} must be sorted non-increasing: {profile}")


def delta_affine(n: int, a, i: int) -> int:
    """Delta value of a derivative-count profile at index i (1-based).

    The profile is padded with -1 past its end; entry j is compared against
    the budget n+1-j.  That is :func:`delta_scheme` of the lengths a_j + 1.
    """
    _check_sorted(a, "a-profile")
    return delta_scheme(n, [x + 1 for x in a], i)


def delta_scheme(n: int, lengths, i: int) -> int:
    """Delta value of a component-length profile at index i (1-based).

    Lengths are padded with 0 past their end; entry j is compared against
    the budget n+2-j.
    """
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}")
    return delta_profile_scheme(n, lengths)[i - 1]


def delta_profile_scheme(n: int, lengths) -> tuple:
    """The full vector (delta(1), ..., delta(n)) of a length profile, in one prefix sum.

    delta(i) = max(0, sum of the first i lengths - sum of the budgets n+2-j, j <= i).
    """
    _check_sorted(lengths, "length profile")
    padded = list(lengths[:n]) + [0] * (n - len(lengths))
    return tuple(max(0, t) for t in accumulate(l - (n + 1 - j) for j, l in enumerate(padded)))


def max_delta_scheme(n: int, lengths) -> int:
    return max(delta_profile_scheme(n, lengths))


def predict_general(n: int, d: int, a) -> Prediction:
    """Expected codimension of the interpolation space for degree d != 2.

    The profile lists, per point, the number of assigned first-derivative
    combinations (0 <= a_i <= n); each point contributes a_i + 1 linear
    conditions.  The prediction is exact for general data apart from the
    five patterns in EXCEPTION_PATTERNS, where the measured codimension
    drops by one.
    """
    if d < 1:
        raise ValueError(f"need d >= 1, got d={d}")
    if d == 2:
        raise ValueError("degree 2 is settled by predict_quadric_affine")
    a = _check_entries(n, a)
    key = (n, d, tuple(sorted(a, reverse=True)))
    exc = EXCEPTION_PATTERNS.get(key)
    codim = min(sum(x + 1 for x in a), comb(n + d, d))
    return Prediction(codim, exc is not None, exc or "none")


def sorted_lengths(n: int, lengths) -> tuple:
    """Component lengths in descending order; ValueError unless each lies in [1, n+1]."""
    lengths = tuple(sorted(lengths, reverse=True))
    if any(l < 1 or l > n + 1 for l in lengths):
        raise ValueError(f"lengths must lie in [1, {n + 1}]: {lengths}")
    return lengths


def predict_quadric_scheme(n: int, lengths) -> QuadricPrediction:
    """Does a general scheme with these component lengths impose independent
    conditions on quadrics?

    Independent means the condition matrix reaches rank min(deg, C(n+2,2)).
    That happens iff either every delta value vanishes or the degree exceeds
    C(n+2,2) by at least the largest delta value.
    """
    lengths = sorted_lengths(n, lengths)
    deg = sum(lengths)
    md = max_delta_scheme(n, lengths) if lengths else 0
    dim = comb(n + 2, 2)
    if md == 0:
        cond = 1
    elif deg >= dim + md:
        cond = 2
    else:
        cond = None
    return QuadricPrediction(cond is not None, md, cond, deg, min(deg, dim))


def predict_quadric_affine(n: int, a) -> QuadricPrediction:
    """Degree-2 predictor for an interpolation profile: lengths are a_i + 1."""
    a = _check_entries(n, a)
    return predict_quadric_scheme(n, tuple(x + 1 for x in a))


def predict_profile(n: int, d: int, a) -> Prediction:
    """Route a profile to the right predictor (degree 2 vs the rest)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    if d < 0:
        raise ValueError(f"need d >= 0, got d={d}")
    a = _check_entries(n, a)
    if d == 0:
        # only constants: every condition count caps at dim = 1
        return Prediction(min(sum(x + 1 for x in a), 1), False, "none")
    if d == 2:
        q = predict_quadric_affine(n, a)
        return Prediction(
            q.expected_codim, not q.independent,
            "none" if q.independent else "quadric-delta",
        )
    return predict_general(n, d, a)


def cone_lower_bound(n: int, lengths, i: int) -> int:
    """Certified lower bound for the dimension of quadrics through the scheme.

    Quadrics singular along the span of the first i support points form a
    space of dimension C(n-i+2, 2) and absorb those components entirely,
    so dim >= C(n-i+2, 2) - (deg X - sum of the first i lengths).
    """
    lengths = tuple(lengths)
    _check_sorted(lengths, "length profile")
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}")
    return comb(n - i + 2, 2) - sum(lengths) + sum(lengths[:i])


def best_cone_lower_bound(n: int, lengths) -> int:
    """Largest cone bound over the indices where the delta profile is positive."""
    lengths = tuple(sorted(lengths, reverse=True))
    deltas = enumerate(delta_profile_scheme(n, lengths), 1)
    return max((cone_lower_bound(n, lengths, i) for i, delta in deltas if delta > 0), default=0)


@dataclass(frozen=True)
class ExceptionRow:
    lengths: tuple
    degree: int
    max_delta: int
    type_vector: tuple  # multiplicities (m_1, ..., m_{n+1}) by length

    def to_json(self):
        return {
            "lengths": list(self.lengths),
            "degree": self.degree,
            "max_delta": self.max_delta,
            "type_vector": list(self.type_vector),
        }


def type_vector(n: int, lengths) -> tuple:
    return tuple(sum(1 for l in lengths if l == i) for i in range(1, n + 2))


def _profiles_up_to(n, max_degree):
    """Non-increasing length profiles with entries <= n+1 and degree <= max_degree."""
    out = []

    def rec(prefix, remaining, cap):
        for l in range(min(cap, remaining), 0, -1):
            prof = prefix + (l,)
            out.append(prof)
            rec(prof, remaining - l, l)

    rec((), max_degree, n + 1)
    return out


def enumerate_quadric_exceptions(n: int):
    """All length profiles that fail to impose independent conditions on quadrics.

    The failing profiles all have degree at most n(n+1), the bound searched,
    so the returned list is the complete classification.  Rows come back
    sorted by descending profile, which is also the layout of the reference
    tables.
    """
    rows = [
        ExceptionRow(prof, sum(prof), max_delta_scheme(n, prof), type_vector(n, prof))
        for prof in _profiles_up_to(n, n * (n + 1))
        if not predict_quadric_scheme(n, prof).independent
    ]
    rows.sort(key=lambda r: r.lengths, reverse=True)
    return rows


@dataclass(frozen=True)
class PartitionFamily:
    kind: str  # 'tripleLM' or 'XO'
    total: int
    parts: tuple


def enumerate_triple_partitions(total: int) -> PartitionFamily:
    """Ways to split a residual degree into components of residual 3, 2 and 1.

    Rows are (t, d, u) with 3t + 2d + u = total and at most one residual-1
    component; configurations with more residual-1 components specialize to
    one of these, so checking the listed rows suffices.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    rows = [(t, (total - 3 * t) // 2, (total - 3 * t) % 2) for t in range(total // 3 + 1)]
    return PartitionFamily("tripleLM", total, tuple(rows))


def _multiplicities(lengths, total):
    """Each way to write ``total`` as a sum of ``lengths``, as a count per length, first slowest."""
    if not lengths:
        if total == 0:
            yield ()
        return
    for c in range(total // lengths[0] + 1):
        for rest in _multiplicities(lengths[1:], total - c * lengths[0]):
            yield (c, *rest)


def enumerate_xo_partitions(total: int, n: int) -> PartitionFamily:
    """Length partitions for the free-supported part of a cubic verification scheme.

    Rows are multiplicity vectors over lengths (n+1, n, ..., 1).  The
    enumeration keeps only configurations that cannot be reached by letting
    two components collide (two parts may merge when their sum still fits in
    a double point, i.e. is <= n+1): at most one part is <= 3, a lone short
    part of length h forces the long parts to exceed n+1-h, and with no
    short part the long parts run from max(4, n-3) to n+1.  For n = 8 this
    reproduces the classic four-family loop exactly.
    """
    if total < 0:
        raise ValueError("total must be >= 0")
    nlen = n + 1
    longs = range(nlen, 3, -1)
    families = [(short, [l for l in longs if l > nlen - short]) for short in (1, 2, 3)]
    families.append((0, [l for l in longs if l >= max(4, n - 3)]))
    rows = []
    # the families never share a row: their parts <= 3 differ (none, or one of length 1, 2 or 3)
    for short, lengths in families:
        if short > total or short > nlen:  # a short part above n+1 has no slot in the vector
            continue
        # each family's long lengths run down from n+1, so its counts lead the vector
        for counts in _multiplicities(lengths, total - short):
            row = [*counts] + [0] * (nlen - len(counts))
            if short:
                row[nlen - short] += 1
            rows.append(tuple(row))
    return PartitionFamily("XO", total, tuple(rows))
