"""Immutable values: one base class for every value class, and a lazy attribute."""

from __future__ import annotations

from operator import attrgetter
from types import MemberDescriptorType
from typing import Any, Callable


class cached:
    """An attribute computed on first use, like functools.cached_property but
    without the lock Python 3.11 takes on every first access: the value goes
    into the instance dict, where later lookups find it before this
    descriptor. For immutable objects, whose values never go stale."""

    def __init__(self, fn: Callable[[Any], Any]) -> None:
        self.fn = fn
        self.name = fn.__name__

    def __get__(self, obj: Any, owner: type | None = None) -> Any:
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Frozen:
    """An immutable value known by its fields, the names its class annotates.

    A subclass keeps its fields and their validation. Each gets
    _make(*fields), the one constructor that checks nothing: it sets the
    fields in order, and a _hash slot, where the class declares one. A class
    that writes no constructor of its own builds through _make, whose
    defaults are the class attributes named as fields, as a frozen
    dataclass's __init__ takes them. A class that validates checks its
    arguments in __new__ and returns cls._make(...); one that also sets a
    derived attribute sets its fields itself.
    Everything else is here, as a frozen dataclass of those fields would
    have it: equality by identity, then class, then fields (by identity
    alone for an interned class); the repr; and no assignment or deletion,
    which raise dataclasses.FrozenInstanceError. The hash is that of the
    field tuple, built on first use unless it is a slot or a constructor
    sets _hash itself.
    Copies and pickles rebuild through the class, so no cached attribute
    crosses them and the hash is taken afresh; an interned class gives back
    its one object. Building a class imports neither inspect nor dataclasses,
    which cost a fresh interpreter milliseconds; the error is imported when raised.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    # set by a class that interns its values, one object per value: its
    # equality is identity, so no field is compared
    _interned = False

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__
        # the class's own annotations, as inspect.get_annotations reads them
        cls._fields = tuple(own.get("__annotations__", ()))
        get = attrgetter(*cls._fields)
        # attrgetter of one name gives the value itself, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))
        # _make is compiled for the fields, as dataclasses compiles __init__
        # (one generic _make that zipped *values into the instance dict made
        # the registry benchmark's p90 verdict time 20% slower). It stores
        # each field through its slot descriptor or into the instance dict,
        # not through __setattr__, and hashes the fields into a _hash slot. A
        # class with no constructor of its own builds through it, and a
        # field's class attribute is its default there.
        builds = "__new__" not in own and "__init__" not in own
        fields = cls._fields
        params = ", ".join(f"{n}=own[{n!r}]" if builds and n in own else n for n in fields)
        slots = {n for n in (*fields, "_hash") if isinstance(getattr(cls, n, None), MemberDescriptorType)}
        space = {"new": object.__new__, "own": own, **{f"set{n}": getattr(cls, n).__set__ for n in slots}}
        lines = [f"set{n}(self, {n})" if n in slots else f"d[{n!r}] = {n}" for n in fields]
        if not slots.issuperset(fields):
            lines.insert(0, "d = self.__dict__")
        if "_hash" in slots:
            lines.append(f"set_hash(self, hash(({''.join(n + ', ' for n in fields)})))")
        body = "".join(f"\n    {line}" for line in ["self = new(cls)", *lines, "return self"])
        exec(f"def _make(cls, {params}):{body}", space)
        cls._make = classmethod(space["_make"])
        if builds:
            cls.__new__ = staticmethod(space["_make"])

    @cached
    def _hash(self) -> int:
        return hash(self._values(self))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return not self._interned and self._values(self) == self._values(other)

    def __reduce__(self) -> tuple:
        # a chain, a value whose last field holds another of its class, is
        # reduced to a flat list of links: copying or pickling a long one
        # then recurses once, not once per link
        links, last = [], self
        while last.__class__ is self.__class__:
            *first, last = self._values(last)
            links.append(first)
        return (_relink, (self.__class__, links, last))

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _relink(cls: type, links: list[list], last: Any) -> Any:
    """A chain rebuilt through its class from its links, outermost first."""
    for first in reversed(links):
        last = cls(*first, last)
    return last
