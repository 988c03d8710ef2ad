"""Inset flow monoid: Bot/Top sentinels and exact key sets over a finite atom grid."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import FrozenInstanceError, dataclass, field
from collections.abc import Iterable
from typing import Any, Iterator

from .errors import ConfigError, ContractViolation, InputError

NEG_INF = float("-inf")
POS_INF = float("inf")

# A key is a finite int or one of the two infinity sentinels.
Key = Any

# Tagged-int form of a flow value, as the compiled flow kernel solves over it:
# a set is its atom bits (>= 0); Bot and Top are the two negative sentinels.
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


@dataclass(frozen=True, eq=False)
class AtomUniverse:
    """Partition of (-inf, inf] into point atoms at grid keys and open gaps between them.

    For f finite endpoints there are 2f+1 atoms: gap, point, gap, ..., point,
    final gap. The final gap is closed at inf so that inf lies in an atom;
    -inf lies in no atom.

    A universe owns a table of its flow values, keyed by their tagged int:
    FlowValue hands back the one object the table holds for a value, so two
    values of one universe are equal exactly when they are the same object.
    """

    finite_endpoints: tuple[int, ...]
    atom_count: int = field(init=False, repr=False)
    full_bits: int = field(init=False, repr=False)
    _hash: int = field(init=False, repr=False)
    _values: dict[int, FlowValue] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        eps = tuple(self.finite_endpoints)
        if any(isinstance(e, bool) or not isinstance(e, int) for e in eps):
            raise InputError(f"grid endpoints must be finite ints: {eps!r}")
        if any(a >= b for a, b in zip(eps, eps[1:])):
            raise InputError(f"grid endpoints must strictly increase: {eps!r}")
        init = object.__setattr__
        init(self, "finite_endpoints", eps)
        init(self, "atom_count", 2 * len(eps) + 1)
        init(self, "full_bits", (1 << self.atom_count) - 1)
        init(self, "_hash", hash((eps,)))
        init(self, "_values", {})
        _intern(self, "bot", 0)
        _intern(self, "top", 0)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not AtomUniverse:
            return NotImplemented
        return self.finite_endpoints == other.finite_endpoints

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        # a copy or an unpickled universe builds its own table
        return (AtomUniverse, (self.finite_endpoints,))

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
            raise ContractViolation(f"atom index {i} out of range")
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


class FlowValue:
    """Flow monoid element: the Bot unit, the Top absorber, or an exact atom set.

    Every constructor, FlowValue(universe, tag, bits) included, returns the
    one object the universe's table holds for the value. It is checked once,
    when first built, and is immutable; its flags are plain attributes.
    """

    __slots__ = ("universe", "tag", "bits", "tagged", "is_bot", "is_top", "is_set", "_hash")

    universe: AtomUniverse
    tag: str
    bits: int
    # the value as one int: its atom bits, BOT_TAG or TOP_TAG
    tagged: int
    is_bot: bool
    is_top: bool
    is_set: bool

    def __new__(cls, universe: AtomUniverse, tag: str, bits: int = 0) -> "FlowValue":
        if tag not in ("bot", "top", "set"):
            raise InputError(f"bad flow value tag: {tag!r}")
        if tag == "set":
            return cls.from_bits(universe, bits)
        if bits != 0:
            raise InputError("sentinel flow values carry no bits")
        return universe._values[BOT_TAG if tag == "bot" else TOP_TAG]

    @classmethod
    def bot(cls, universe: AtomUniverse) -> "FlowValue":
        return universe._values[BOT_TAG]

    @classmethod
    def top(cls, universe: AtomUniverse) -> "FlowValue":
        return universe._values[TOP_TAG]

    @classmethod
    def from_bits(cls, universe: AtomUniverse, bits: int) -> "FlowValue":
        value = universe._values.get(bits)
        if value is None or bits < 0:
            value = _intern(universe, "set", bits)
        return value

    @classmethod
    def from_tagged(cls, universe: AtomUniverse, tagged: int) -> "FlowValue":
        value = universe._values.get(tagged)
        return value if value is not None else _intern(universe, "set", tagged)

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not FlowValue:
            return NotImplemented
        # one object per value in a universe: only an equal twin universe holds an equal value
        return (
            self.universe is not other.universe
            and self.tagged == other.tagged
            and self.universe == other.universe
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (FlowValue, (self.universe, self.tag, self.bits))

    def __repr__(self) -> str:
        return f"FlowValue(universe={self.universe!r}, tag={self.tag!r}, bits={self.bits!r})"

    def contains_key(self, key: Key) -> bool:
        """True if the value admits key; -inf only lives in the full set."""
        if self.is_top:
            return True
        if self.is_bot:
            return False
        if key == NEG_INF:
            return self.bits == self.universe.full_bits
        atom = self.universe.atom_of_key(key)
        return bool(self.bits >> atom & 1)

    def __str__(self) -> str:
        if self.is_bot:
            return "bot"
        if self.is_top:
            return "top"
        return self.universe.format_bits(self.bits)


def _intern(universe: AtomUniverse, tag: str, bits: int) -> FlowValue:
    # the only place a FlowValue is built: check it and enter it in the universe's table
    if not 0 <= bits <= universe.full_bits:
        raise InputError("atom bits out of range for the universe")
    value = object.__new__(FlowValue)
    tagged = bits if tag == "set" else BOT_TAG if tag == "bot" else TOP_TAG
    init = object.__setattr__
    init(value, "universe", universe)
    init(value, "tag", tag)
    init(value, "bits", bits)
    init(value, "tagged", tagged)
    init(value, "is_bot", tag == "bot")
    init(value, "is_top", tag == "top")
    init(value, "is_set", tag == "set")
    # the hash a frozen dataclass of (universe, tag, bits) would have
    init(value, "_hash", hash((universe, tag, bits)))
    universe._values[tagged] = value
    return value


def _check_same_universe(m: FlowValue, n: FlowValue) -> None:
    if m.universe != n.universe:
        raise ConfigError("flow values from different atom universes")


def oplus(m: FlowValue, n: FlowValue) -> FlowValue:
    """Monoid sum: Bot is the unit; any other combination collapses to Top."""
    if m.universe is not n.universe:
        _check_same_universe(m, n)
    if n.is_bot:
        return m
    if m.is_bot:
        return n
    return m.universe._values[TOP_TAG]


def natural_leq(m: FlowValue, n: FlowValue) -> bool:
    """Natural order of the monoid: m <= n iff some o gives m + o = n."""
    _check_same_universe(m, n)
    # closed form: the only ascents are Bot <= anything and anything <= Top
    return m.is_bot or m == n or n.is_top


def meet_interval(m: FlowValue, interval_bits: int) -> FlowValue:
    """Intersect with an atom bitset; Bot and Top pass through unchanged."""
    if not m.is_set:
        return m
    bits = m.bits & interval_bits
    return m if bits == m.bits else FlowValue.from_bits(m.universe, bits)


def all_values(universe: AtomUniverse) -> Iterator[FlowValue]:
    """Every element of the finite lattice: Bot, Top, and all atom sets."""
    yield FlowValue.bot(universe)
    yield FlowValue.top(universe)
    for bits in range(universe.full_bits + 1):
        yield FlowValue.from_bits(universe, bits)


def interval_bits(
    universe: AtomUniverse, lo: Key, hi: Key, lo_open: bool, hi_open: bool
) -> int:
    """Atom bitset of one interval; endpoints must align with the grid.

    Openness at the infinities is not meaningful on this partition and is
    normalized away, so [-inf, 4) and (-inf, 4) denote the same bitset.
    """
    if not (is_key(lo) and is_key(hi)):
        raise InputError(f"interval bounds must be keys: {lo!r}, {hi!r}")
    if lo == NEG_INF:
        lo_open = True
    if hi == POS_INF:
        hi_open = False
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


def value_from_json(universe: AtomUniverse, raw: Any) -> FlowValue:
    """Decode a JSON flow value: "bot", "top", or {"intervals": [...]}."""
    if raw == "bot":
        return FlowValue.bot(universe)
    if raw == "top":
        return FlowValue.top(universe)
    if isinstance(raw, dict) and set(raw) == {"intervals"}:
        return FlowValue.from_bits(universe, parse_interval_set(universe, raw["intervals"]))
    raise InputError(f"bad flow value: {raw!r}")


def value_to_json(m: FlowValue) -> Any:
    """Encode a flow value in the JSON interval form."""
    if m.is_bot:
        return "bot"
    if m.is_top:
        return "top"
    ivs = [
        [key_to_json(lo), key_to_json(hi), lo_open, hi_open]
        for lo, hi, lo_open, hi_open in bits_to_intervals(m.universe, m.bits)
    ]
    return {"intervals": ivs}
