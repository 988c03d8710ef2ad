"""Inset flow monoid: Bot/Top sentinels and exact key sets over a finite atom grid."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from typing import Any, Iterator

from .errors import InputError
from .frozen import Frozen

NEG_INF = float("-inf")
POS_INF = float("inf")

# A key is a finite int or one of the two infinity sentinels.
Key = Any

# A flow value is an int: a set is its atom bits (>= 0); Bot and Top are the
# two negative sentinels. An edge function uses the same ints: a filter is its
# bits, TOP_TAG is ConstTop and BOT_TAG is ConstBot.
BOT_TAG = -1
TOP_TAG = -2


def is_key(value: Any) -> bool:
    """Return True if value is a finite int key or an infinity sentinel."""
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    return value == NEG_INF or value == POS_INF


def parse_key(raw: Any) -> Key:
    """Decode a JSON key: an integer, "-inf", or "inf"."""
    if raw == "-inf":
        return NEG_INF
    if raw == "inf":
        return POS_INF
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise InputError(f"not a key: {raw!r}")
    return raw


def key_to_json(key: Key) -> Any:
    """Encode a key as a JSON value."""
    if key == NEG_INF:
        return "-inf"
    if key == POS_INF:
        return "inf"
    return key


def format_key(key: Key) -> str:
    """Render a key for terminal output."""
    if key == NEG_INF:
        return "-inf"
    if key == POS_INF:
        return "inf"
    return str(key)


class AtomUniverse(Frozen):
    """Partition of (-inf, inf] into point atoms at grid keys and open gaps between them.

    For f finite endpoints there are 2f+1 atoms: gap, point, gap, ..., point,
    final gap. The final gap is closed at inf so that inf lies in an atom;
    -inf lies in no atom. The atom count and the full bitset are derived.
    """

    finite_endpoints: tuple[int, ...]

    def __init__(self, finite_endpoints: Iterable[int]) -> None:
        eps = tuple(finite_endpoints)
        if any(isinstance(e, bool) or not isinstance(e, int) for e in eps):
            raise InputError(f"grid endpoints must be finite ints: {eps!r}")
        if any(a >= b for a, b in zip(eps, eps[1:])):
            raise InputError(f"grid endpoints must strictly increase: {eps!r}")
        init = object.__setattr__
        init(self, "finite_endpoints", eps)
        init(self, "atom_count", 2 * len(eps) + 1)
        init(self, "full_bits", (1 << self.atom_count) - 1)
        init(self, "_hash", hash((eps,)))

    @classmethod
    def from_endpoints(cls, endpoints: Any) -> "AtomUniverse":
        """Build a universe from any iterable of keys; infinities are implicit."""
        if not isinstance(endpoints, Iterable):
            raise InputError(f"grid endpoints must be a list of keys: {endpoints!r}")
        finite = sorted({parse_key(e) for e in endpoints} - {NEG_INF, POS_INF})
        return cls(tuple(finite))

    def atom_bounds(self, i: int) -> tuple[Key, Key, bool, bool]:
        """Bounds (lo, hi, lo_open, hi_open) of atom i; points are [e, e]."""
        eps = self.finite_endpoints
        f = len(eps)
        if not 0 <= i < self.atom_count:
            raise InputError(f"atom index {i} out of range")
        if i % 2 == 1:
            e = eps[i // 2]
            return (e, e, False, False)
        j = i // 2
        lo = eps[j - 1] if j >= 1 else NEG_INF
        if j < f:
            return (lo, eps[j], True, True)
        return (lo, POS_INF, True, False)

    def atom_of_key(self, key: Key) -> int | None:
        """Atom index containing key; None for -inf, which lies in no atom."""
        if key == NEG_INF:
            return None
        if key == POS_INF:
            return self.atom_count - 1
        eps = self.finite_endpoints
        idx = bisect_left(eps, key)
        if idx < len(eps) and eps[idx] == key:
            return 2 * idx + 1
        return 2 * idx

    def format_bits(self, bits: int) -> str:
        """Render an atom bitset as interval notation."""
        pieces = []
        for lo, hi, lo_open, hi_open in bits_to_intervals(self, bits):
            if lo == hi:
                pieces.append("{%s}" % format_key(lo))
            else:
                lb = "(" if lo_open else "["
                rb = ")" if hi_open else "]"
                pieces.append(f"{lb}{format_key(lo)},{format_key(hi)}{rb}")
        return ", ".join(pieces) if pieces else "{}"


def contains_key(universe: AtomUniverse, m: int, key: Key) -> bool:
    """True if flow value m admits key; -inf only lives in the full set."""
    if m == TOP_TAG:
        return True
    if m == BOT_TAG:
        return False
    if key == NEG_INF:
        return m == universe.full_bits
    return bool(m >> universe.atom_of_key(key) & 1)


def format_value(universe: AtomUniverse, m: int) -> str:
    """Render a flow value for terminal output."""
    if m == BOT_TAG:
        return "bot"
    if m == TOP_TAG:
        return "top"
    return universe.format_bits(m)


def oplus(m: int, n: int) -> int:
    """Monoid sum: Bot is the unit; any other combination collapses to Top."""
    if n == BOT_TAG:
        return m
    if m == BOT_TAG:
        return n
    return TOP_TAG


def natural_leq(m: int, n: int) -> bool:
    """Natural order of the monoid: m <= n iff some o gives m + o = n."""
    # closed form: the only ascents are Bot <= anything and anything <= Top
    return m == BOT_TAG or m == n or n == TOP_TAG


def meet_interval(m: int, interval_bits: int) -> int:
    """Intersect with an atom bitset; Bot and Top pass through unchanged."""
    return m & interval_bits if m >= 0 else m


def all_values(universe: AtomUniverse) -> Iterator[int]:
    """Every element of the finite lattice: Bot, Top, and all atom sets."""
    yield BOT_TAG
    yield TOP_TAG
    yield from range(universe.full_bits + 1)


def interval_bits(
    universe: AtomUniverse, lo: Key, hi: Key, lo_open: bool, hi_open: bool
) -> int:
    """Atom bitset of one interval; endpoints must align with the grid.

    Openness at the infinities is not meaningful on this partition and is
    never read, so [-inf, 4) and (-inf, 4) denote the same bitset.
    """
    if not (is_key(lo) and is_key(hi)):
        raise InputError(f"interval bounds must be keys: {lo!r}, {hi!r}")
    if lo > hi:
        raise InputError(f"empty-ordered interval: {format_key(lo)} > {format_key(hi)}")
    eps = universe.finite_endpoints
    last_atom = universe.atom_count - 1
    # first: the atom holding the lower bound, or the one starting at it;
    # last: the atom holding the upper bound, or the one ending at it.
    # A bound strictly inside its atom (off the grid, or a closed bound at
    # inf) leaves that atom partly covered.
    if lo == NEG_INF:
        first, lo_inside = 0, False
    elif lo == POS_INF:
        first, lo_inside = (last_atom + 1, False) if lo_open else (last_atom, True)
    else:
        j = bisect_left(eps, lo)
        if j < len(eps) and eps[j] == lo:
            first, lo_inside = 2 * j + (2 if lo_open else 1), False
        else:
            first, lo_inside = 2 * j, True
    if hi == POS_INF:
        last, hi_inside = last_atom, False
    elif hi == NEG_INF:
        last, hi_inside = -1, False
    else:
        j = bisect_left(eps, hi)
        if j < len(eps) and eps[j] == hi:
            last, hi_inside = 2 * j + (0 if hi_open else 1), False
        else:
            last, hi_inside = 2 * j, True
    if first <= last and (lo_inside or hi_inside):
        cut = first if lo_inside else last
        raise InputError(
            f"interval endpoint off the grid: "
            f"{format_key(lo)}..{format_key(hi)} cuts atom {universe.format_bits(1 << cut)}"
        )
    if lo_inside:
        first += 1
    if hi_inside:
        last -= 1
    return (1 << last + 1) - (1 << first) if first <= last else 0


def bits_to_intervals(
    universe: AtomUniverse, bits: int
) -> list[tuple[Key, Key, bool, bool]]:
    """Decompose a bitset into maximal intervals of consecutive atoms."""
    bits &= universe.full_bits
    out = []
    while bits:
        low = bits & -bits
        # adding the run's lowest bit carries into the first bit above the run
        above = (bits + low) & ~bits
        lo, _, lo_open, _ = universe.atom_bounds(low.bit_length() - 1)
        _, hi, _, hi_open = universe.atom_bounds(above.bit_length() - 2)
        out.append((lo, hi, lo_open, hi_open))
        bits &= bits + low
    return out


def parse_interval(universe: AtomUniverse, raw: Any) -> int:
    """Decode one JSON interval [lo, hi, loOpen, hiOpen] to an atom bitset."""
    if not (isinstance(raw, (list, tuple)) and len(raw) == 4):
        raise InputError(f"interval must be [lo, hi, loOpen, hiOpen]: {raw!r}")
    lo, hi = parse_key(raw[0]), parse_key(raw[1])
    if not (isinstance(raw[2], bool) and isinstance(raw[3], bool)):
        raise InputError(f"interval openness flags must be booleans: {raw!r}")
    return interval_bits(universe, lo, hi, raw[2], raw[3])


def parse_interval_set(universe: AtomUniverse, raw: Any) -> int:
    """Decode a JSON list of intervals to the union bitset."""
    if not isinstance(raw, list):
        raise InputError(f"interval set must be a list: {raw!r}")
    bits = 0
    for item in raw:
        bits |= parse_interval(universe, item)
    return bits


def value_from_json(universe: AtomUniverse, raw: Any) -> int:
    """Decode a JSON flow value: "bot", "top", or {"intervals": [...]}."""
    if raw == "bot":
        return BOT_TAG
    if raw == "top":
        return TOP_TAG
    if isinstance(raw, dict) and set(raw) == {"intervals"}:
        return parse_interval_set(universe, raw["intervals"])
    raise InputError(f"bad flow value: {raw!r}")


def value_to_json(universe: AtomUniverse, m: int) -> Any:
    """Encode a flow value in the JSON interval form."""
    if m == BOT_TAG:
        return "bot"
    if m == TOP_TAG:
        return "top"
    ivs = [
        [key_to_json(lo), key_to_json(hi), lo_open, hi_open]
        for lo, hi, lo_open, hi_open in bits_to_intervals(universe, m)
    ]
    return {"intervals": ivs}
