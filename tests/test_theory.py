import random
from itertools import combinations_with_replacement
from math import comb

import pytest

from ppinterp import theory
from ppinterp.theory import (
    cone_lower_bound,
    delta_affine,
    delta_scheme,
    enumerate_quadric_exceptions,
    enumerate_triple_partitions,
    enumerate_xo_partitions,
    predict_general,
    predict_profile,
    predict_quadric_affine,
    predict_quadric_scheme,
)
from ppinterp.verify import EXPECTED_QUADRIC_EXCEPTIONS


def test_delta_scheme_table_row():
    assert delta_scheme(3, (4, 4, 4), 3) == 3


def test_delta_affine_examples():
    assert delta_affine(2, (2, 2), 1) == 0
    for n in range(2, 9):
        # direct evaluation: 2n - (n + (n-1)) = 1 at i = 2, 0 at i = 1
        assert delta_affine(n, (n, n), 1) == 0
        assert delta_affine(n, (n, n), 2) == 1


def test_delta_profiles():
    from ppinterp.theory import delta_profile_scheme

    assert delta_profile_scheme(3, (4, 4, 4)) == (0, 1, 3)
    # two full tangent spaces in P^4 (lengths 5, 5) peak at the second index:
    # the budget shortfall appears once both points are counted, and the -1
    # padding absorbs it again further out
    assert delta_profile_scheme(4, (5, 5)) == (0, 1, 0, 0)


def test_delta_profile_matches_the_definition_at_each_index():
    # the one-pass prefix sum against delta(i) written out index by index,
    # on every sorted length profile with up to n + 2 parts, n = 1..5
    from ppinterp.theory import delta_profile_scheme

    for n in range(1, 6):
        for k in range(n + 3):
            for parts in combinations_with_replacement(range(1, n + 2), k):
                lengths = tuple(sorted(parts, reverse=True))
                padded = lengths + (0,) * n
                expected = tuple(max(0, sum(padded[:i]) - sum(n + 2 - j for j in range(1, i + 1)))
                                 for i in range(1, n + 1))
                assert delta_profile_scheme(n, lengths) == expected
                assert [delta_scheme(n, lengths, i) for i in range(1, n + 1)] == list(expected)


def test_delta_rejects_unsorted():
    with pytest.raises(ValueError):
        delta_affine(3, (1, 2), 1)
    with pytest.raises(ValueError):
        delta_scheme(3, (2, 4), 1)


def test_delta_bridge_identity_exhaustive():
    # shifting a profile by one per entry converts the value budget into the
    # length budget, so the two deltas agree on a = lengths - 1
    for n in range(1, 7):
        for k in range(9):
            for a in combinations_with_replacement(range(n + 1), k):
                prof = tuple(sorted(a, reverse=True))
                lengths = tuple(x + 1 for x in prof)
                for i in range(1, n + 1):
                    assert delta_affine(n, prof, i) == delta_scheme(n, lengths, i)


def test_predict_general_exceptions():
    p = predict_general(4, 3, (4,) * 7)
    assert (p.expected_codim, p.exceptional, p.exception_id) == (35, True, "c")
    p = predict_general(3, 4, (3,) * 8 + (2,))
    assert (p.expected_codim, p.exceptional, p.exception_id) == (35, True, "b'")
    p = predict_general(2, 3, (2, 2, 2))
    assert (p.expected_codim, p.exceptional) == (9, False)


def test_predict_general_permutation_invariant():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(1, 4)
        d = rng.choice((1, 3, 4, 5))
        a = [rng.randint(0, n) for _ in range(rng.randint(1, 10))]
        shuffled = a[:]
        rng.shuffle(shuffled)
        assert predict_general(n, d, a) == predict_general(n, d, shuffled)


def test_predict_general_validation():
    with pytest.raises(ValueError):
        predict_general(3, 2, (3, 3))
    with pytest.raises(ValueError):
        predict_general(3, 3, (4,))
    with pytest.raises(ValueError):
        predict_general(3, 0, (1,))
    for d in (0, 2, 3):  # no interpolation problem lives in K^0
        with pytest.raises(ValueError, match="n >= 1"):
            predict_profile(0, d, (0,))
    for d in (0, 1, 2, 3):  # entries are checked before the degree routes
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 2\]"):
            predict_profile(2, d, (9, -4))
    with pytest.raises(ValueError, match="d >= 0"):
        predict_profile(2, -1, (1,))
    assert predict_profile(2, 0, (2, 0)).expected_codim == 1


def test_exception_list_is_exactly_five():
    assert sorted(theory.EXCEPTION_PATTERNS.values()) == ["a", "b", "b'", "c", "d"]


def test_predict_quadric_examples():
    assert not predict_quadric_scheme(3, (4, 4, 4)).independent
    q = predict_quadric_scheme(3, (3, 3, 3))
    assert q.independent and q.which_condition == 1
    q = predict_quadric_scheme(3, (4, 4, 4, 1))
    assert q.independent and q.which_condition == 2 and q.degree == 13


def test_predict_quadric_affine_bridge():
    q = predict_quadric_affine(3, (3, 3, 3))
    assert not q.independent and q.max_delta == 3


def test_unique_quadric_interpolant():
    # a square problem (condition count C(n+2,2)) has exactly one quadric
    # interpolant when its affine quadric prediction is independent; two full
    # tangent spaces at two points overload the first budget entry
    q = predict_quadric_affine(2, (2, 2))
    assert q.degree == comb(4, 2) and not q.independent
    q = predict_quadric_affine(2, (2, 1, 0))
    assert q.degree == comb(4, 2) and q.independent
    assert predict_quadric_affine(2, (2, 2, 2)).degree > comb(4, 2)  # not square
    with pytest.raises(ValueError, match="entries"):  # square, but 3 > n
        predict_quadric_affine(2, (3, 1))


def test_predict_quadric_affine_on_every_square_profile():
    # oracle: every leading partial sum of the sorted profile stays within
    # the budget sum_{j<=i} (n + 1 - j)
    def within_budget(n, a):
        return all(sum(a[:i]) <= sum(n + 1 - j for j in range(1, i + 1))
                   for i in range(1, min(n, len(a)) + 1))

    for n in range(1, 5):
        dim = comb(n + 2, 2)
        square = [a for k in range(1, dim + 1)
                  for a in combinations_with_replacement(range(n, -1, -1), k)
                  if sum(x + 1 for x in a) == dim]
        assert square
        for a in square:
            assert predict_quadric_affine(n, a).independent == within_budget(n, a), (n, a)
            assert predict_quadric_affine(n, a[::-1]).independent == within_budget(n, a), (n, a)


def test_predict_profile_routes_degree_two():
    p = predict_profile(3, 2, (3, 3))
    assert p.exceptional and p.exception_id == "quadric-delta"
    p = predict_profile(3, 2, (2, 1, 1, 0))
    assert not p.exceptional


def test_quadric_exceptions_p2():
    rows = enumerate_quadric_exceptions(2)
    assert [r.lengths for r in rows] == [(3, 3)]


def test_quadric_exceptions_p3_table():
    rows = enumerate_quadric_exceptions(3)
    assert [r.lengths for r in rows] == [p for p, _ in EXPECTED_QUADRIC_EXCEPTIONS[3]]
    by = {r.lengths: r for r in rows}
    assert (by[(4, 4, 4)].degree, by[(4, 4, 4)].max_delta) == (12, 3)
    assert by[(4, 4, 4)].type_vector == (0, 0, 0, 3)
    assert (by[(4, 4, 2)].degree, by[(4, 4, 2)].max_delta) == (10, 1)
    assert by[(4, 4, 2)].type_vector == (0, 1, 0, 2)
    assert by[(4, 3, 3)].type_vector == (0, 0, 2, 1)


def test_quadric_exceptions_p4_contains_table_plus_documented_extras():
    # the delta criterion classifies three profiles beyond the published
    # 36-row list; all three are proven deficient (cone bound 1, measured
    # dim 1), so the enumeration keeps them -- see the acceptance suite
    rows = enumerate_quadric_exceptions(4)
    mine = [r.lengths for r in rows]
    fixture = [p for p, _ in EXPECTED_QUADRIC_EXCEPTIONS[4]]
    assert set(fixture) <= set(mine)
    assert sorted(set(mine) - set(fixture), reverse=True) == [
        (5, 4, 4, 4), (5, 4, 4, 3), (5, 4, 3, 3),
    ]
    # the published rows appear in table order within the enumeration
    positions = [mine.index(p) for p in fixture]
    assert positions == sorted(positions)
    by = {r.lengths: r for r in rows}
    assert (by[(5, 5, 5, 5)].degree, by[(5, 5, 5, 5)].max_delta) == (20, 6)
    assert by[(5, 5, 5, 5)].type_vector == (0, 0, 0, 0, 4)
    assert (by[(5, 5, 2, 1, 1)].degree, by[(5, 5, 2, 1, 1)].max_delta) == (14, 1)
    assert by[(4, 4, 4, 3)].type_vector == (0, 0, 1, 3, 0)


def test_quadric_exceptions_saturate_by_simple_points():
    # appending simple points until the degree reaches C(n+2,2) + max delta
    # always lands on an independent profile
    for n in (2, 3, 4):
        for row in enumerate_quadric_exceptions(n):
            lengths = row.lengths
            while not predict_quadric_scheme(n, lengths).independent:
                lengths = lengths + (1,)
            assert sum(lengths) <= comb(n + 2, 2) + row.max_delta


def triple_oracle(total):
    return {
        (t, d, u)
        for t in range(total + 1)
        for d in range(total + 1)
        for u in (0, 1)
        if 3 * t + 2 * d + u == total
    }


def test_triple_partitions_against_oracle():
    for total in range(21):
        fam = enumerate_triple_partitions(total)
        assert fam.kind == "tripleLM" and fam.total == total
        assert set(fam.parts) == triple_oracle(total)
    assert enumerate_triple_partitions(0).parts == ((0, 0, 0),)
    assert set(enumerate_triple_partitions(10).parts) == {
        (0, 5, 0), (2, 2, 0), (1, 3, 1), (3, 0, 1),
    }


def xo_oracle_p8(total):
    # literal translation of the four reference loops over lengths 9..5
    rows = set()
    for t in range(total // 9 + 2):
        if 9 * t + 1 == total:
            rows.add((t, 0, 0, 0, 0, 0, 0, 0, 1))
        for o in range(total // 8 + 2):
            if 9 * t + 8 * o + 2 == total:
                rows.add((t, o, 0, 0, 0, 0, 0, 1, 0))
            for s in range(total // 7 + 2):
                if 9 * t + 8 * o + 7 * s + 3 == total:
                    rows.add((t, o, s, 0, 0, 0, 1, 0, 0))
                for e in range(total // 6 + 2):
                    for c in range(total // 5 + 2):
                        if 9 * t + 8 * o + 7 * s + 6 * e + 5 * c == total:
                            rows.add((t, o, s, e, c, 0, 0, 0, 0))
    return rows


def test_xo_partitions_match_p8_script_families():
    for total in (0, 12, 27, 38, 39, 41, 42):
        assert set(enumerate_xo_partitions(total, 8).parts) == xo_oracle_p8(total)


def test_xo_partitions_spec_example():
    assert (4, 0, 0, 0, 0, 0, 1, 0, 0) in enumerate_xo_partitions(39, 8).parts


def test_xo_partition_sums():
    for n in (5, 6, 7, 8):
        for total in (18, 25, 36):
            for row in enumerate_xo_partitions(total, n).parts:
                assert len(row) == n + 1
                assert sum(c * (n + 1 - j) for j, c in enumerate(row)) == total


def test_xo_rows_have_the_total_degree_in_small_spaces():
    # a short part longer than n+1 used to wrap to slot -1: at n = 1, total 3
    # gave the row (0, 1), one component of length 1
    for n in range(1, 5):
        for total in range(12):
            for row in enumerate_xo_partitions(total, n).parts:
                assert len(row) == n + 1
                assert sum(c * (n + 1 - j) for j, c in enumerate(row)) == total, (n, total, row)


def all_partitions_oracle(total, n):
    # every partition with parts <= n+1 and at most one part <= 3
    out = set()

    def rec(remaining, max_part, counts, used_short):
        if remaining == 0:
            vec = [0] * (n + 1)
            for length, c in counts:
                vec[n + 1 - length] += c
            out.add(tuple(vec))
            return
        for part in range(min(max_part, remaining), 0, -1):
            if part <= 3:
                if used_short:
                    continue
                rec(remaining - part, part, counts + ((part, 1),), True)
            else:
                rec(remaining - part, part, counts + ((part, 1),), used_short)

    rec(total, n + 1, (), False)
    return out


def test_xo_partitions_exhaustive_mode():
    for n, total in ((5, 18), (8, 20)):
        # the rows are a subset of the exhaustive enumeration
        assert set(enumerate_xo_partitions(total, n).parts) <= all_partitions_oracle(total, n)


def test_cone_lower_bound_values():
    assert cone_lower_bound(3, (4, 4, 4), 3) == 1
    assert cone_lower_bound(4, (5, 5, 5, 5), 4) == 1
    # with no overload the bound never exceeds the expected dimension
    lengths = (3, 3, 3)
    for i in range(1, 4):
        assert delta_scheme(3, lengths, i) == 0
        assert cone_lower_bound(3, lengths, i) <= max(0, comb(5, 2) - sum(lengths))
