"""``Value``, the base of the package's small record classes.

A subclass declares its fields as class annotations, in order (they
become ``Cls.FIELDS``), and is built as ``Cls(*fields)``; a wrong number
of fields raises ``TypeError``.  ``==`` compares the fields within one
class: a value never equals a value of another class or a tuple.
``hash`` hashes the fields, and a class with a mutable field sets
``__hash__ = None``.  ``repr`` reads ``Cls(name=value, ...)``.  A class
that checks its fields overrides ``__init__`` and checks after the base
has set them.  Values are immutable by convention, as ``Cyc``, ``MPoly``
and ``Poly`` are.

This is what ``dataclasses`` generates for a frozen dataclass.  The
package does without it because importing ``dataclasses`` (which brings
``inspect``, ``dis``, ``ast`` and ``tokenize``) and executing the
methods it generates took about half of ``import cherednik`` from cached
bytecode, and a fifth without it (README, Performance notes).
"""

__all__ = ["Value"]


class Value:
    """Fields from the class annotations; ``==``, ``hash`` and ``repr``
    over them (see the module docstring)."""

    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls.FIELDS = tuple(cls.__dict__.get("__annotations__", ()))

    def __init__(self, *fields):
        if len(fields) != len(self.FIELDS):
            raise TypeError(f"expected the fields {self.FIELDS}")
        self.__dict__.update(zip(self.FIELDS, fields))

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.FIELDS)
        return f"{type(self).__qualname__}({body})"
