"""Memory model: cells, lvalues and the four OpenCL address spaces.

A :class:`Cell` is one named storage location (a variable, a kernel buffer or
a work-group's local array).  Aggregate values stored in a cell are navigated
by *paths* -- tuples whose elements are struct/union field names or array
indices -- which gives pointers and lvalues a simple, allocation-free
representation: ``(cell, path)``.

Shared-memory accesses (cells in the ``global`` or ``local`` address spaces)
are reported to an access hook so that the race detector
(:mod:`repro.runtime.racecheck`) can implement the paper's data-race
definition (section 3.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.kernel_lang import types as ty
from repro.kernel_lang import values as vals
from repro.kernel_lang.semantics import UBKind
from repro.runtime.errors import UndefinedBehaviourError

PathElement = Union[str, int]
Path = Tuple[PathElement, ...]

_cell_ids = itertools.count()


@dataclass
class Cell:
    """One storage location holding a (possibly aggregate) value."""

    name: str
    type: ty.Type
    value: vals.Value
    address_space: str = ty.PRIVATE
    volatile: bool = False
    initialised: bool = True
    uid: int = field(default_factory=lambda: next(_cell_ids))

    @staticmethod
    def uninitialised(name: str, type_: ty.Type, address_space: str = ty.PRIVATE,
                      volatile: bool = False) -> "Cell":
        """Create a cell whose value is zero but flagged as uninitialised."""
        return Cell(
            name,
            type_,
            vals.zero_value(type_),
            address_space,
            volatile,
            initialised=False,
        )

    @property
    def is_shared(self) -> bool:
        return self.address_space in (ty.LOCAL, ty.GLOBAL)


#: An access hook receives (cell, path, is_write, is_atomic).
AccessHook = Callable[[Cell, Path, bool, bool], None]


def _navigate(value: vals.Value, path: Path) -> vals.Value:
    """Follow ``path`` into ``value`` and return the referenced sub-value."""
    current = value
    for element in path:
        if isinstance(current, vals.StructValue):
            if not isinstance(element, str) or not current.type.has_field(element):
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, f"no field {element!r} in {current.type}"
                )
            current = current.get(element)
        elif isinstance(current, vals.UnionValue):
            if not isinstance(element, str) or not current.type.has_field(element):
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, f"no member {element!r} in {current.type}"
                )
            current = current.get(element)
        elif isinstance(current, vals.ArrayValue):
            if not isinstance(element, int):
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, f"array indexed with {element!r}"
                )
            if element < 0 or element >= current.type.length:
                raise UndefinedBehaviourError(
                    UBKind.OUT_OF_BOUNDS,
                    f"index {element} out of bounds for length {current.type.length}",
                )
            current = current.get(element)
        elif isinstance(current, vals.VectorValue):
            if not isinstance(element, int) or not (0 <= element < current.type.length):
                raise UndefinedBehaviourError(
                    UBKind.OUT_OF_BOUNDS, f"vector component {element!r}"
                )
            current = current.component(element)
        else:
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD,
                f"cannot navigate {type(current).__name__} with {element!r}",
            )
    return current


def _store(value: vals.Value, path: Path, new: vals.Value) -> vals.Value:
    """Return ``value`` with the sub-value at ``path`` replaced by ``new``.

    Aggregates are mutated in place (they are reference types in the model);
    only the top-level replacement returns a new object when ``path`` is
    empty.
    """
    if not path:
        return new
    parent = _navigate(value, path[:-1])
    last = path[-1]
    if isinstance(parent, (vals.StructValue, vals.UnionValue)):
        if not isinstance(last, str) or not parent.type.has_field(last):
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, f"no field {last!r} in {parent.type}"
            )
        parent.set(last, new)
    elif isinstance(parent, vals.ArrayValue):
        if not isinstance(last, int) or not (0 <= last < parent.type.length):
            raise UndefinedBehaviourError(
                UBKind.OUT_OF_BOUNDS, f"index {last!r} out of bounds"
            )
        parent.set(last, new)
    elif isinstance(parent, vals.VectorValue):
        if not isinstance(last, int) or not (0 <= last < parent.type.length):
            raise UndefinedBehaviourError(
                UBKind.OUT_OF_BOUNDS, f"vector component {last!r}"
            )
        if not isinstance(new, vals.ScalarValue):
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, "vector component assigned a non-scalar"
            )
        parent.elements[last] = parent.type.element.wrap(new.value)
    else:
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"cannot store into {type(parent).__name__}"
        )
    return value


def type_at_path(root: ty.Type, path: Path) -> ty.Type:
    """Compute the static type of the location ``path`` within ``root``."""
    current = root
    for element in path:
        if isinstance(current, (ty.StructType, ty.UnionType)) and isinstance(element, str):
            current = current.field(element).type
        elif isinstance(current, ty.ArrayType) and isinstance(element, int):
            current = current.element
        elif isinstance(current, ty.VectorType) and isinstance(element, int):
            current = current.element
        else:
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, f"cannot navigate type {current} with {element!r}"
            )
    return current


@dataclass
class LValue:
    """A storage location: a cell plus a path into its value."""

    cell: Cell
    path: Path = ()

    @property
    def type(self) -> ty.Type:
        return type_at_path(self.cell.type, self.path)

    def read(self, hook: Optional[AccessHook] = None, atomic: bool = False) -> vals.Value:
        if hook is not None and self.cell.is_shared:
            hook(self.cell, self.path, False, atomic)
        return _navigate(self.cell.value, self.path)

    def write(self, new: vals.Value, hook: Optional[AccessHook] = None,
              atomic: bool = False) -> None:
        if hook is not None and self.cell.is_shared:
            hook(self.cell, self.path, True, atomic)
        self.cell.value = _store(self.cell.value, self.path, new)
        self.cell.initialised = True

    def index(self, i: int) -> "LValue":
        return LValue(self.cell, self.path + (i,))

    def member(self, name: str) -> "LValue":
        return LValue(self.cell, self.path + (name,))

    def as_pointer(self, address_space: Optional[str] = None) -> vals.PointerValue:
        space = address_space if address_space is not None else self.cell.address_space
        ptype = ty.PointerType(self.type, space)
        return vals.PointerValue(ptype, self.cell, self.path)


def lvalue_from_pointer(ptr: vals.PointerValue) -> LValue:
    """Convert a pointer value back into the lvalue it designates."""
    if ptr.is_null:
        raise UndefinedBehaviourError(UBKind.NULL_DEREFERENCE)
    return LValue(ptr.cell, ptr.path)  # type: ignore[arg-type]


class Environment:
    """A lexically-scoped mapping from names to cells (private memory)."""

    def __init__(self, parent: Optional["Environment"] = None):
        self._vars: dict = {}
        self._parent = parent

    def declare(self, cell: Cell) -> Cell:
        self._vars[cell.name] = cell
        return cell

    def lookup(self, name: str) -> Cell:
        env: Optional[Environment] = self
        while env is not None:
            if name in env._vars:
                return env._vars[name]
            env = env._parent
        raise KeyError(f"variable {name!r} not found")

    def contains(self, name: str) -> bool:
        try:
            self.lookup(name)
            return True
        except KeyError:
            return False

    def child(self) -> "Environment":
        return Environment(self)


class GlobalMemory:
    """Global/constant memory: the buffers allocated by the host."""

    def __init__(self) -> None:
        self._buffers: dict = {}

    def allocate(self, name: str, element_type: ty.IntType, size: int,
                 contents: Sequence[int], address_space: str = ty.GLOBAL) -> Cell:
        arr_type = ty.ArrayType(element_type, size)
        elements = [vals.ScalarValue.wrap(element_type, v) for v in contents]
        cell = Cell(name, arr_type, vals.ArrayValue(arr_type, list(elements)),
                    address_space)
        self._buffers[name] = cell
        return cell

    def cell(self, name: str) -> Cell:
        return self._buffers[name]

    def names(self) -> List[str]:
        return list(self._buffers)

    def contents(self, name: str) -> List[int]:
        cell = self._buffers[name]
        assert isinstance(cell.value, vals.ArrayValue)
        return [e.value for e in cell.value.elements]  # type: ignore[union-attr]


#: One local buffer of a launch: its name, array type and initial elements.
LocalBuffer = Tuple[str, ty.ArrayType, List[vals.ScalarValue]]


def local_buffers(specs) -> List[LocalBuffer]:
    """The local buffers among ``specs`` (a program's ``BufferSpec``s), built
    once per launch: every group starts from the same elements, and a
    :class:`~repro.kernel_lang.values.ScalarValue` is immutable, so each
    group's :class:`LocalMemory` copies the list and shares the values."""
    return [
        (
            spec.name,
            ty.ArrayType(spec.element_type, spec.size),
            [vals.ScalarValue.wrap(spec.element_type, v) for v in spec.initial_contents()],
        )
        for spec in specs
        if spec.address_space == ty.LOCAL
    ]


class LocalMemory:
    """Per-work-group local memory, holding a fresh copy of ``buffers``."""

    def __init__(self, group_linear_id: int, buffers: Sequence[LocalBuffer]) -> None:
        self.group_linear_id = group_linear_id
        self._buffers = {
            name: Cell(f"{name}@group{group_linear_id}", arr_type,
                       vals.ArrayValue(arr_type, list(elements)), ty.LOCAL)
            for name, arr_type, elements in buffers
        }

    def cell(self, name: str) -> Cell:
        return self._buffers[name]

    def names(self) -> List[str]:
        return list(self._buffers)


__all__ = [
    "Cell",
    "LValue",
    "Environment",
    "GlobalMemory",
    "LocalBuffer",
    "LocalMemory",
    "local_buffers",
    "Path",
    "PathElement",
    "AccessHook",
    "lvalue_from_pointer",
    "type_at_path",
]
