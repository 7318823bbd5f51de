"""Runtime values for the kernel language.

Values carry their type, so that arithmetic follows OpenCL's integer
semantics: unsigned arithmetic wraps modulo 2**N, while signed overflow is
*undefined behaviour* and is reported by the interpreter unless the
computation goes through one of the ``safe_*`` builtins (mirroring how the
Csmith/CLsmith generators keep their programs well defined; paper sec. 4.1).

All values are immutable except aggregates (struct/union/array), which are
mutated in place by assignments through lvalues.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.kernel_lang import types as ty


class KernelValueError(Exception):
    """Raised for internal value-model misuse (a bug in the harness itself)."""


@dataclass
class ScalarValue:
    """An integer scalar value of a specific :class:`IntType`."""

    type: ty.IntType
    value: int

    def __post_init__(self) -> None:
        if not self.type.contains(self.value):
            raise KernelValueError(
                f"value {self.value} out of range for {self.type.spelling()}"
            )

    @staticmethod
    def wrap(type_: ty.IntType, raw: int) -> "ScalarValue":
        """Construct a scalar, wrapping ``raw`` into the type's range."""
        return ScalarValue(type_, type_.wrap(raw))

    def cast(self, target: ty.IntType) -> "ScalarValue":
        """Explicit conversion (always defined: two's-complement truncation)."""
        return ScalarValue.wrap(target, self.value)

    def copy(self) -> "ScalarValue":
        return ScalarValue(self.type, self.value)

    def encode(self) -> bytes:
        return self.type.encode(self.value)

    def __str__(self) -> str:  # pragma: no cover
        return str(self.value)


@dataclass
class VectorValue:
    """A vector value; ``elements`` has exactly ``type.length`` entries."""

    type: ty.VectorType
    elements: List[int]

    def __post_init__(self) -> None:
        if len(self.elements) != self.type.length:
            raise KernelValueError(
                f"vector literal has {len(self.elements)} elements, "
                f"expected {self.type.length}"
            )
        self.elements = [self.type.element.wrap(e) for e in self.elements]

    @staticmethod
    def splat(type_: ty.VectorType, scalar: int) -> "VectorValue":
        return VectorValue(type_, [scalar] * type_.length)

    def component(self, index: int) -> ScalarValue:
        return ScalarValue.wrap(self.type.element, self.elements[index])

    def with_component(self, index: int, value: int) -> "VectorValue":
        elems = list(self.elements)
        elems[index] = value
        return VectorValue(self.type, elems)

    def copy(self) -> "VectorValue":
        return VectorValue(self.type, list(self.elements))

    def encode(self) -> bytes:
        return b"".join(self.type.element.encode(e) for e in self.elements)

    def __str__(self) -> str:  # pragma: no cover
        inner = ", ".join(str(e) for e in self.elements)
        return f"({self.type.spelling()})({inner})"


@dataclass
class StructValue:
    """A struct value stored field-by-field."""

    type: ty.StructType
    fields: Dict[str, "Value"]

    @staticmethod
    def zero(type_: ty.StructType) -> "StructValue":
        return StructValue(
            type_, {f.name: zero_value(f.type) for f in type_.fields}
        )

    def get(self, name: str) -> "Value":
        return self.fields[name]

    def set(self, name: str, value: "Value") -> None:
        self.fields[name] = value

    def copy(self) -> "StructValue":
        return StructValue(
            self.type, {k: copy_value(v) for k, v in self.fields.items()}
        )

    def encode(self) -> bytes:
        buf = bytearray(self.type.sizeof())
        for name, offset in self.type.layout():
            data = encode_value(self.fields[name])
            buf[offset : offset + len(data)] = data
        return bytes(buf)

    def __str__(self) -> str:  # pragma: no cover
        inner = ", ".join(f".{k}={v}" for k, v in self.fields.items())
        return f"{{{inner}}}"


@dataclass
class UnionValue:
    """A union value backed by raw bytes.

    Storing the bytes (rather than the last written member) lets the model
    reproduce reinterpretation behaviour and partial-initialisation bugs such
    as the NVIDIA union bug of Figure 2(a), where initialising via one member
    and reading another exposes which bytes the compiler actually wrote.
    """

    type: ty.UnionType
    storage: bytearray

    @staticmethod
    def zero(type_: ty.UnionType) -> "UnionValue":
        return UnionValue(type_, bytearray(type_.sizeof()))

    def get(self, name: str) -> "Value":
        field = self.type.field(name)
        return decode_value(field.type, bytes(self.storage))

    def set(self, name: str, value: "Value") -> None:
        field = self.type.field(name)
        data = encode_value(value)
        if len(data) > len(self.storage):  # pragma: no cover - defensive
            raise KernelValueError("union member larger than union storage")
        self.storage[: len(data)] = data

    def copy(self) -> "UnionValue":
        return UnionValue(self.type, bytearray(self.storage))

    def encode(self) -> bytes:
        return bytes(self.storage)

    def __str__(self) -> str:  # pragma: no cover
        return f"union<{self.storage.hex()}>"


@dataclass
class ArrayValue:
    """A fixed-length array value."""

    type: ty.ArrayType
    elements: List["Value"]

    @staticmethod
    def zero(type_: ty.ArrayType) -> "ArrayValue":
        return ArrayValue(
            type_, [zero_value(type_.element) for _ in range(type_.length)]
        )

    def get(self, index: int) -> "Value":
        return self.elements[index]

    def set(self, index: int, value: "Value") -> None:
        self.elements[index] = value

    def copy(self) -> "ArrayValue":
        return ArrayValue(self.type, [copy_value(v) for v in self.elements])

    def encode(self) -> bytes:
        return b"".join(encode_value(v) for v in self.elements)

    def __str__(self) -> str:  # pragma: no cover
        return "[" + ", ".join(str(e) for e in self.elements) + "]"


@dataclass
class PointerValue:
    """A pointer value: a reference to an lvalue in some memory object.

    ``cell`` is a runtime memory cell (see :mod:`repro.runtime.memory`) and
    ``path`` is a sequence of field names / integer indices navigating into
    the aggregate stored in the cell.  A null pointer has ``cell is None``.
    """

    type: ty.PointerType
    cell: Optional[object] = None
    path: tuple = ()

    @property
    def is_null(self) -> bool:
        return self.cell is None

    def copy(self) -> "PointerValue":
        return PointerValue(self.type, self.cell, self.path)

    def __str__(self) -> str:  # pragma: no cover
        if self.is_null:
            return "NULL"
        return f"&<{id(self.cell):#x}>{''.join('.' + str(p) for p in self.path)}"


Value = Union[ScalarValue, VectorValue, StructValue, UnionValue, ArrayValue, PointerValue]


def zero_value(type_: ty.Type) -> Value:
    """Construct the zero-initialised value of ``type_``."""
    if isinstance(type_, ty.IntType):
        return ScalarValue(type_, 0)
    if isinstance(type_, ty.VectorType):
        return VectorValue.splat(type_, 0)
    if isinstance(type_, ty.StructType):
        return StructValue.zero(type_)
    if isinstance(type_, ty.UnionType):
        return UnionValue.zero(type_)
    if isinstance(type_, ty.ArrayType):
        return ArrayValue.zero(type_)
    if isinstance(type_, ty.PointerType):
        return PointerValue(type_)
    raise KernelValueError(f"cannot zero-initialise {type_}")


def copy_value(value: Value) -> Value:
    """Deep-copy a value (used for pass-by-value and aggregate assignment)."""
    return value.copy()


def encode_value(value: Value) -> bytes:
    """Encode a value to little-endian bytes following natural layout."""
    return value.encode()


def decode_value(type_: ty.Type, data: bytes) -> Value:
    """Decode bytes into a value of ``type_`` (inverse of :func:`encode_value`)."""
    if isinstance(type_, ty.IntType):
        return ScalarValue(type_, type_.decode(data))
    if isinstance(type_, ty.VectorType):
        size = type_.element.sizeof()
        elems = [
            type_.element.decode(data[i * size : (i + 1) * size])
            for i in range(type_.length)
        ]
        return VectorValue(type_, elems)
    if isinstance(type_, ty.StructType):
        fields: Dict[str, Value] = {}
        for name, offset in type_.layout():
            ftype = type_.field(name).type
            fields[name] = decode_value(ftype, data[offset : offset + ftype.sizeof()])
        return StructValue(type_, fields)
    if isinstance(type_, ty.UnionType):
        return UnionValue(type_, bytearray(data[: type_.sizeof()]))
    if isinstance(type_, ty.ArrayType):
        size = type_.element.sizeof()
        elems = [
            decode_value(type_.element, data[i * size : (i + 1) * size])
            for i in range(type_.length)
        ]
        return ArrayValue(type_, elems)
    raise KernelValueError(f"cannot decode {type_}")


def scalar(type_: ty.IntType, value: int) -> ScalarValue:
    """Shorthand constructor used pervasively in tests and workloads."""
    return ScalarValue.wrap(type_, value)


def values_equal(a: Value, b: Value) -> bool:
    """Structural equality used when voting on results."""
    if isinstance(a, ScalarValue) and isinstance(b, ScalarValue):
        return a.value == b.value
    if isinstance(a, VectorValue) and isinstance(b, VectorValue):
        return a.elements == b.elements
    if isinstance(a, (StructValue, UnionValue, ArrayValue)) and isinstance(
        b, (StructValue, UnionValue, ArrayValue)
    ):
        return encode_value(a) == encode_value(b)
    if isinstance(a, PointerValue) and isinstance(b, PointerValue):
        return a.cell is b.cell and a.path == b.path
    return False


__all__ = [
    "KernelValueError",
    "ScalarValue",
    "VectorValue",
    "StructValue",
    "UnionValue",
    "ArrayValue",
    "PointerValue",
    "Value",
    "zero_value",
    "copy_value",
    "encode_value",
    "decode_value",
    "scalar",
    "values_equal",
]
