"""Frozen value records, written once by hand.

Every value class of the package (IntMat, DegreeMatrix, Cone, Fan,
ProjPoint, Chamber and the verdicts and reports) subclasses Record.
"""

from __future__ import annotations


class Record:
    """Base of an immutable value class whose fields are its class-level
    annotations, in order; a class-level value of a field is its default.

    It replaces `dataclasses.dataclass(frozen=True)` and keeps its
    behaviour: a constructor taking the fields positionally or by keyword
    and then calling `__post_init__`, equality of same-class records with
    equal fields, the hash of the field tuple, `Name(field=value, ...)` as
    repr, and AttributeError on assignment or deletion. The decorator
    writes those methods as source text and runs `exec` on it for each
    class, and its module imports `inspect`, `ast` and `copy`: together
    most of the package's import time, which every CLI run pays. Here
    `__init_subclass__` only reads the field names and defaults, and the
    methods are written once, below.

    The constructor keeps the field tuple as `_key`, which equality, hash
    and repr read, so the fields are never rewritten. Only ProjPoint and
    Cone, made in the inner loops of the plane search and of every fan,
    write their own `__init__`: it validates and then stores the fields
    and `_key`, in annotation order, with `store`, without the generic
    one's packing of `*args` and `**kwargs`. Under timeit on CPython
    3.11, a shared storing helper made Cone() and an attrgetter key made
    its hash and equality each over a fifth slower than the dataclass.
    A value kept on an instance outside the fields (a cached property, a
    stored hash, ProjSubspace.pivots) is set with `store` as well, and
    takes no part in equality, hash or repr."""

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        if kwargs or len(args) != len(self._fields):
            args = _bind(type(self), args, kwargs)
        for name, value in zip(self._fields, args):
            store(self, name, value)
        store(self, "_key", args)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(self._fields, self._key)) + ")"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


# how a constructor stores past the frozen __setattr__: unlike a write
# into __dict__, it keeps the instance's attributes in the values array
# that CPython (3.11 on) specialises attribute reads for
store = object.__setattr__


def _bind(cls: type, args: tuple, kwargs: dict) -> tuple:
    """The field values of a record of class cls in order, from positional
    and keyword arguments and the defaults, or TypeError as for a wrong
    call."""
    fields = cls._fields
    rest = fields[len(args):]
    if len(args) > len(fields) or not kwargs.keys() <= set(rest):
        raise TypeError(f"{cls.__name__}() takes {', '.join(fields)}, each "
                        f"once, by position or by name")
    values = {**cls._defaults, **kwargs}
    missing = [f for f in rest if f not in values]
    if missing:
        raise TypeError(f"{cls.__name__}() missing required arguments: "
                        f"{', '.join(missing)}")
    return (*args, *map(values.__getitem__, rest))
