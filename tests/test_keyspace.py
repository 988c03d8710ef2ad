"""Inset flow monoid: frozen examples and algebraic laws."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowcheck.errors import InputError
from flowcheck.flowgraph import FlowGraph
from flowcheck.keyspace import (
    BOT_TAG,
    NEG_INF,
    POS_INF,
    TOP_TAG,
    AtomUniverse,
    all_values,
    bits_to_intervals,
    contains_key,
    format_key,
    format_value,
    interval_bits,
    meet_interval,
    natural_leq,
    oplus,
    value_from_json,
    value_to_json,
)

U = AtomUniverse.from_endpoints([1, 2, 3, 4, 7])


def pts(universe: AtomUniverse, *keys: int) -> int:
    bits = 0
    for k in keys:
        bits |= 1 << universe.atom_of_key(k)
    return bits


# ---------------------------------------------------------------- structure


def test_atom_count_is_twice_endpoints_plus_one():
    assert U.atom_count == 11
    assert AtomUniverse.from_endpoints([]).atom_count == 1
    assert AtomUniverse.from_endpoints([5]).atom_count == 3


def test_endpoints_are_their_own_atoms():
    for e in U.finite_endpoints:
        lo, hi, lo_open, hi_open = U.atom_bounds(U.atom_of_key(e))
        assert (lo, hi, lo_open, hi_open) == (e, e, False, False)


def test_atoms_partition_the_line():
    # every probe key lands in exactly one atom; -inf lands in none
    assert U.atom_of_key(NEG_INF) is None
    assert U.atom_of_key(POS_INF) == U.atom_count - 1
    for k in range(-2, 10):
        i = U.atom_of_key(k)
        lo, hi, lo_open, hi_open = U.atom_bounds(i)
        assert (lo < k or (lo == k and not lo_open))
        assert (k < hi or (k == hi and not hi_open))


def test_final_gap_is_closed_at_pos_inf():
    lo, hi, lo_open, hi_open = U.atom_bounds(U.atom_count - 1)
    assert (lo, hi, lo_open, hi_open) == (7, POS_INF, True, False)


def test_universe_rejects_bad_endpoints():
    with pytest.raises(InputError):
        AtomUniverse((3, 3))
    with pytest.raises(InputError):
        AtomUniverse((4, 2))


# ---------------------------------------------------------------- oplus


def test_oplus_bot_is_unit():
    m = pts(U, 1, 2)
    assert oplus(m, BOT_TAG) == m
    assert oplus(BOT_TAG, m) == m


def test_oplus_bot_bot():
    assert oplus(BOT_TAG, BOT_TAG) == BOT_TAG


def test_oplus_two_sets_collapse_to_top():
    assert oplus(pts(U, 1, 2), pts(U, 3)) == TOP_TAG


def test_oplus_empty_set_is_not_the_unit():
    empty = 0
    assert oplus(pts(U, 1), empty) == TOP_TAG
    assert empty != BOT_TAG


# ---------------------------------------------------------------- values in graphs


def test_values_keep_the_dataclass_repr_and_hash():
    # sorting states by repr orders reports, so a graph's repr, values
    # included, is part of the output
    u = AtomUniverse.from_endpoints([5])
    g = FlowGraph(u, (0,), ((0, 1, TOP_TAG),), ((9, 0, 3),))
    assert repr(g) == (
        "FlowGraph(universe=AtomUniverse(finite_endpoints=(5,)), nodes=(0,), "
        "edges=((0, 1, -2),), inflow=((9, 0, 3),))"
    )
    assert hash(u) == hash(((5,),))
    assert hash(g) == hash((u, (0,), ((0, 1, TOP_TAG),), ((9, 0, 3),)))


def test_direct_construction_is_still_checked():
    # a value is checked where it enters a graph: Top or an atom set of the universe
    for bad in (BOT_TAG, -3, U.full_bits + 1, True, 1.0):
        with pytest.raises(InputError):
            FlowGraph(U, (0,), (), ((9, 0, bad),))
        with pytest.raises(InputError):
            FlowGraph(U, (0,), ((0, 1, bad),), ())
    for good in (TOP_TAG, 0, U.full_bits):
        assert FlowGraph(U, (0,), ((0, 1, good),), ((9, 0, good),)).inflow == ((9, 0, good),)


# ---------------------------------------------------------------- natural_leq


def test_leq_bot_below_everything():
    assert natural_leq(BOT_TAG, pts(U, 7))


def test_leq_distinct_sets_incomparable():
    assert not natural_leq(pts(U, 1), pts(U, 1, 2))
    assert not natural_leq(pts(U, 1, 2), pts(U, 1))


def test_leq_top_above_everything():
    assert natural_leq(pts(U, 1), TOP_TAG)


def test_leq_matches_existential_definition_exhaustively():
    # m <= n iff some o has m + o = n, checked on a 3-atom universe
    small = AtomUniverse.from_endpoints([5])
    vals = list(all_values(small))
    for m in vals:
        for n in vals:
            witnessed = any(oplus(m, o) == n for o in vals)
            assert natural_leq(m, n) == witnessed


# ---------------------------------------------------------------- meet_interval


def test_meet_top_passes_through():
    below4 = interval_bits(U, NEG_INF, 4, False, True)
    assert meet_interval(TOP_TAG, below4) == TOP_TAG


def test_meet_bot_passes_through():
    above4 = interval_bits(U, 4, POS_INF, True, False)
    assert meet_interval(BOT_TAG, above4) == BOT_TAG


def test_meet_intersects_sets():
    below4 = interval_bits(U, NEG_INF, 4, False, True)
    assert meet_interval(pts(U, 3, 7), below4) == pts(U, 3)


# ---------------------------------------------------------------- lattice laws

U3 = AtomUniverse.from_endpoints([5])
U5 = AtomUniverse.from_endpoints([2, 4])
VALS3 = list(all_values(U3))
VALS5 = list(all_values(U5))


def test_oplus_commutative_and_associative_exhaustive():
    # m+n = n+m and (m+n)+o = m+(n+o) over every triple of a 5-atom universe
    for m in VALS5:
        for n in VALS5:
            assert oplus(m, n) == oplus(n, m)
            for o in VALS5:
                assert oplus(oplus(m, n), o) == oplus(m, oplus(n, o))


def test_bot_is_the_unique_unit():
    for n in VALS5:
        if all(oplus(m, n) == m for m in VALS5):
            assert n == BOT_TAG


def test_leq_is_a_partial_order():
    for m in VALS3:
        assert natural_leq(m, m)
        for n in VALS3:
            if natural_leq(m, n) and natural_leq(n, m):
                assert m == n
            for o in VALS3:
                if natural_leq(m, n) and natural_leq(n, o):
                    assert natural_leq(m, o)


def test_strict_chains_have_length_at_most_three():
    # bot < set < top is the longest strict ascent
    for m in VALS3:
        for n in VALS3:
            if natural_leq(m, n) and m != n:
                assert m == BOT_TAG or n == TOP_TAG


@given(st.sampled_from(VALS5), st.sampled_from(VALS5), st.sampled_from(VALS5))
def test_oplus_monotone_both_arguments(m, n, o):
    # m <= n implies m+o <= n+o (continuity on a finite lattice)
    if natural_leq(m, n):
        assert natural_leq(oplus(m, o), oplus(n, o))
        assert natural_leq(oplus(o, m), oplus(o, n))


@given(st.sampled_from(VALS5), st.sampled_from(VALS5), st.integers(0, U5.full_bits))
def test_meet_interval_monotone(m, n, ibits):
    if natural_leq(m, n):
        assert natural_leq(meet_interval(m, ibits), meet_interval(n, ibits))


# ---------------------------------------------------------------- intervals and JSON


def test_interval_openness_at_infinities_is_ignored():
    a = interval_bits(U, NEG_INF, 4, False, True)
    b = interval_bits(U, NEG_INF, 4, True, True)
    assert a == b
    c = interval_bits(U, 7, POS_INF, True, True)
    d = interval_bits(U, 7, POS_INF, True, False)
    assert c == d
    e = interval_bits(U, 4, POS_INF, False, False)
    f = interval_bits(U, 4, POS_INF, False, True)
    assert e == f and contains_key(U, e, 4) and contains_key(U, e, POS_INF)


def test_interval_point_and_gap_bits():
    assert interval_bits(U, 4, 4, False, False) == 1 << U.atom_of_key(4)
    open_gap = interval_bits(U, 4, 7, True, True)
    assert not contains_key(U, open_gap, 4)
    assert not contains_key(U, open_gap, 7)
    assert contains_key(U, open_gap, 5)


def test_interval_off_grid_rejected():
    with pytest.raises(InputError):
        interval_bits(U, NEG_INF, 5, True, True)
    with pytest.raises(InputError, match="interval bounds must be keys"):
        interval_bits(U, 1, "x", False, False)


def test_full_interval_contains_both_infinities():
    full = interval_bits(U, NEG_INF, POS_INF, False, False)
    assert full == U.full_bits
    assert contains_key(U, full, NEG_INF)
    assert contains_key(U, full, POS_INF)


def test_bot_admits_no_key():
    for key in (NEG_INF, 1, 4, 5, 7, POS_INF):
        assert not contains_key(U, BOT_TAG, key)


def test_json_round_trip():
    for raw in ("bot", "top", {"intervals": [[1, 4, True, False], [7, 7, False, False]]}):
        v = value_from_json(U, raw)
        assert value_from_json(U, value_to_json(U, v)) == v


def test_json_value_with_a_key_besides_intervals_is_rejected():
    with pytest.raises(InputError, match="bad flow value"):
        value_from_json(U, {"intervals": [], "x": 1})


def test_json_canonical_runs_merge_adjacent_atoms():
    v = value_from_json(U, {"intervals": [[1, 2, False, False], [2, 3, False, False]]})
    assert value_to_json(U, v) == {"intervals": [[1, 3, False, False]]}


def test_bits_to_intervals_covers_every_bit():
    for bits in range(U3.full_bits + 1):
        back = 0
        for lo, hi, lo_open, hi_open in bits_to_intervals(U3, bits):
            back |= interval_bits(U3, lo, hi, lo_open, hi_open)
        assert back == bits


def test_format_examples():
    assert format_value(U, pts(U, 4)) == "{4}"
    gap = interval_bits(U, 4, 7, True, True)
    assert format_value(U, gap) == "(4,7)"
    assert format_value(U, BOT_TAG) == "bot"


# ---------------------------------------------------------------- closed forms against the atom loop


def _lower_covers(outer: tuple, inner: tuple) -> bool:
    # outer lower bound admits everything the inner lower bound admits
    ov, oo = outer
    iv, io = inner
    return ov < iv or (ov == iv and (not oo or io))


def _upper_covers(outer: tuple, inner: tuple) -> bool:
    ov, oo = outer
    iv, io = inner
    return ov > iv or (ov == iv and (not oo or io))


def _upper_below_lower(upper: tuple, lower: tuple) -> bool:
    # ranges ending at `upper` and starting at `lower` share no point
    uv, uo = upper
    lv, lo = lower
    return uv < lv or (uv == lv and (uo or lo))


def reference_interval_bits(universe, lo, hi, lo_open, hi_open) -> int:
    """interval_bits as a scan over every atom: covered, disjoint, or cut."""
    if lo == NEG_INF:
        lo_open = True
    if hi == POS_INF:
        hi_open = False
    if lo > hi:
        raise InputError(f"empty-ordered interval: {format_key(lo)} > {format_key(hi)}")
    bits = 0
    for i in range(universe.atom_count):
        a_lo, a_hi, a_lo_open, a_hi_open = universe.atom_bounds(i)
        if _lower_covers((lo, lo_open), (a_lo, a_lo_open)) and _upper_covers(
            (hi, hi_open), (a_hi, a_hi_open)
        ):
            bits |= 1 << i
            continue
        disjoint = _upper_below_lower((hi, hi_open), (a_lo, a_lo_open)) or _upper_below_lower(
            (a_hi, a_hi_open), (lo, lo_open)
        )
        if not disjoint:
            raise InputError(
                f"interval endpoint off the grid: "
                f"{format_key(lo)}..{format_key(hi)} cuts atom {universe.format_bits(1 << i)}"
            )
    return bits


def reference_bits_to_intervals(universe, bits) -> list:
    """bits_to_intervals as a walk over every atom index."""
    runs = []
    i = 0
    n = universe.atom_count
    while i < n:
        if bits >> i & 1:
            j = i
            while j + 1 < n and bits >> (j + 1) & 1:
                j += 1
            runs.append((i, j))
            i = j + 1
        else:
            i += 1
    out = []
    for i, j in runs:
        lo, _, lo_open, _ = universe.atom_bounds(i)
        _, hi, _, hi_open = universe.atom_bounds(j)
        out.append((lo, hi, lo_open, hi_open))
    return out


REFERENCE_GRIDS = [(), (5,), (0, 10), (-1, 5, 11), (1, 4, 7, 9), (0, 3, 4, 8, 11), (0, 2, 4, 6, 8, 10)]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return ("InputError", str(exc))


@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_interval_bits_matches_the_atom_scan(grid):
    u = AtomUniverse(grid)
    keys = [NEG_INF, *range(-1, 12), POS_INF]
    for lo in keys:
        for hi in keys:
            for lo_open in (False, True):
                for hi_open in (False, True):
                    args = (u, lo, hi, lo_open, hi_open)
                    assert _outcome(interval_bits, *args) == _outcome(
                        reference_interval_bits, *args
                    ), args


@pytest.mark.parametrize("grid", REFERENCE_GRIDS)
def test_bits_to_intervals_matches_the_atom_walk(grid):
    u = AtomUniverse(grid)
    # bits above the grid and negative ints are read on the grid's atoms only
    extra = [-1, -6, u.full_bits << 1, 1 << u.atom_count + 3]
    for bits in [*range(u.full_bits + 1), *extra]:
        assert bits_to_intervals(u, bits) == reference_bits_to_intervals(u, bits), bits
