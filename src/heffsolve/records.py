"""Base of the read-only records that check their input.

Such a record lists its fields in ``__slots__``, checks its arguments in an
explicit ``__init__`` and sets the fields once, through :meth:`Frozen._set`;
any later assignment raises AttributeError.  :meth:`Frozen._replace` copies
one with some fields changed, as a NamedTuple's ``_replace`` does.  The
records without checks are ``typing.NamedTuple`` classes instead.  Neither
form generates code when the package is imported.
"""

from __future__ import annotations

__all__ = ["Frozen"]


class Frozen:
    """A record whose fields, its ``__slots__``, are set only by its ``__init__``."""

    __slots__ = ()

    def _set(self, *values) -> None:
        """Set the fields, in ``__slots__`` order, to ``values``."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        """A new record, checked again, with ``changes`` applied; the fields
        must be the keyword arguments of ``__init__``."""
        return type(self)(**({name: getattr(self, name) for name in self.__slots__} | changes))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
