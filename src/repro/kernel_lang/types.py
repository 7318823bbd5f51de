"""Type system for the OpenCL-C-like kernel language.

OpenCL C fixes the widths of the integer types and mandates a two's-complement
representation for signed integers (paper, section 3.1).  The type objects
here therefore carry an exact bit-width and signedness, expose value ranges,
and know how to encode/decode themselves to little-endian bytes.  Byte-level
layout matters because several of the paper's bugs (e.g. the NVIDIA union
initialisation bug of Figure 2(a) and the AMD struct layout bug of
Figure 1(a)) are only expressible at that level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


class Type:
    """Base class for all kernel-language types."""

    #: C-like spelling, overridden by subclasses.
    def spelling(self) -> str:
        raise NotImplementedError

    def sizeof(self) -> int:
        raise NotImplementedError

    def alignof(self) -> int:
        return self.sizeof()

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.spelling()

    def __repr__(self) -> str:  # pragma: no cover - convenience
        return f"<{type(self).__name__} {self.spelling()}>"


@dataclass(frozen=True)
class VoidType(Type):
    """The ``void`` type, used only as a function return type."""

    def spelling(self) -> str:
        return "void"

    def sizeof(self) -> int:
        raise TypeError("void has no size")


@dataclass(frozen=True)
class IntType(Type):
    """A fixed-width integer scalar type (``char`` ... ``ulong``).

    Equality, hashing and pickles use the three fields only.  Construction
    and unpickling also precompute the range (``min_value``, ``max_value``)
    and the wrap masks as plain attributes: ``mask`` is ``2**bits - 1`` and
    ``half`` is ``2**(bits - 1)`` for signed types and 0 for unsigned ones,
    so ``((v + half) & mask) - half`` is the wrap for either signedness (the
    compiled engine inlines exactly that expression).  Keeping them out of
    the pickled state keeps program blobs in the triage store's format, so
    stores written before the attributes existed still load.
    """

    name: str
    bits: int
    signed: bool

    def __post_init__(self) -> None:
        mask = (1 << self.bits) - 1
        half = 1 << (self.bits - 1) if self.signed else 0
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "half", half)
        object.__setattr__(self, "min_value", -half)
        object.__setattr__(self, "max_value", mask - half)

    def __getstate__(self) -> Dict[str, object]:
        return {"name": self.name, "bits": self.bits, "signed": self.signed}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for key in ("name", "bits", "signed"):
            object.__setattr__(self, key, state[key])
        self.__post_init__()

    def spelling(self) -> str:
        return self.name

    def sizeof(self) -> int:
        return self.bits // 8

    def contains(self, value: int) -> bool:
        """Return True if ``value`` is representable in this type."""
        return self.min_value <= value <= self.max_value

    def wrap(self, value: int) -> int:
        """Reduce ``value`` modulo 2**bits into this type's range.

        This is the conversion OpenCL performs for unsigned arithmetic and for
        explicit casts; for signed types it implements the two's-complement
        reinterpretation that the standard mandates for conversions.
        """
        half = self.half
        return ((value + half) & self.mask) - half

    def encode(self, value: int) -> bytes:
        """Encode ``value`` as little-endian bytes of this type's width."""
        return (value & self.mask).to_bytes(self.bits // 8, "little")

    def decode(self, data: bytes) -> int:
        """Decode little-endian bytes into a value of this type."""
        raw = int.from_bytes(data[: self.bits // 8], "little")
        return self.wrap(raw)

    @property
    def unsigned_variant(self) -> "IntType":
        return _UNSIGNED_OF[self.bits]

    @property
    def signed_variant(self) -> "IntType":
        return _SIGNED_OF[self.bits]


# The eight OpenCL integer scalar types.
CHAR = IntType("char", 8, True)
UCHAR = IntType("uchar", 8, False)
SHORT = IntType("short", 16, True)
USHORT = IntType("ushort", 16, False)
INT = IntType("int", 32, True)
UINT = IntType("uint", 32, False)
LONG = IntType("long", 64, True)
ULONG = IntType("ulong", 64, False)

#: ``size_t`` is modelled as a distinct 64-bit unsigned type so that the
#: "invalid operands to binary expression ('int' and 'size_t')" front-end
#: defect of configuration 15 (paper section 6) can be expressed.
SIZE_T = IntType("size_t", 64, False)

ALL_SCALAR_TYPES: Tuple[IntType, ...] = (
    CHAR,
    UCHAR,
    SHORT,
    USHORT,
    INT,
    UINT,
    LONG,
    ULONG,
)

_SIGNED_OF: Dict[int, IntType] = {8: CHAR, 16: SHORT, 32: INT, 64: LONG}
_UNSIGNED_OF: Dict[int, IntType] = {8: UCHAR, 16: USHORT, 32: UINT, 64: ULONG}

_BY_NAME: Dict[str, IntType] = {t.name: t for t in ALL_SCALAR_TYPES}
_BY_NAME["size_t"] = SIZE_T


def scalar_by_name(name: str) -> IntType:
    """Look up a scalar type by its OpenCL C spelling."""
    try:
        return _BY_NAME[name]
    except KeyError as exc:  # pragma: no cover - defensive
        raise KeyError(f"unknown scalar type {name!r}") from exc


#: Vector lengths supported by OpenCL 1.1 for the types we model
#: (length 3 exists from OpenCL 1.1 but the paper's generator does not use it).
VECTOR_LENGTHS: Tuple[int, ...] = (2, 4, 8, 16)


@dataclass(frozen=True)
class VectorType(Type):
    """An OpenCL vector type such as ``int4`` or ``uchar16``."""

    element: IntType
    length: int

    def __post_init__(self) -> None:
        if self.length not in VECTOR_LENGTHS:
            raise ValueError(f"unsupported vector length {self.length}")

    def spelling(self) -> str:
        return f"{self.element.name}{self.length}"

    def sizeof(self) -> int:
        return self.element.sizeof() * self.length

    def alignof(self) -> int:
        return self.sizeof()


@dataclass(frozen=True)
class FieldDecl:
    """A single field of a struct or union."""

    name: str
    type: Type
    volatile: bool = False

    def spelling(self) -> str:
        vol = "volatile " if self.volatile else ""
        return f"{vol}{self.type.spelling()} {self.name}"


def _align_up(offset: int, align: int) -> int:
    return (offset + align - 1) // align * align


@dataclass(frozen=True)
class StructType(Type):
    """A C struct with standard (natural-alignment) layout."""

    name: str
    fields: Tuple[FieldDecl, ...]

    def spelling(self) -> str:
        return f"struct {self.name}"

    def field_names(self) -> List[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"{self.spelling()} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def layout(self) -> List[Tuple[str, int]]:
        """Return ``(field name, byte offset)`` pairs with natural alignment."""
        out: List[Tuple[str, int]] = []
        offset = 0
        for f in self.fields:
            offset = _align_up(offset, f.type.alignof())
            out.append((f.name, offset))
            offset += f.type.sizeof()
        return out

    def sizeof(self) -> int:
        if not self.fields:
            return 0
        layout = self.layout()
        last_name, last_off = layout[-1]
        end = last_off + self.field(last_name).type.sizeof()
        return _align_up(end, self.alignof())

    def alignof(self) -> int:
        if not self.fields:
            return 1
        return max(f.type.alignof() for f in self.fields)


@dataclass(frozen=True)
class UnionType(Type):
    """A C union; all members share storage starting at offset zero."""

    name: str
    fields: Tuple[FieldDecl, ...]

    def spelling(self) -> str:
        return f"union {self.name}"

    def field_names(self) -> List[str]:
        return [f.name for f in self.fields]

    def field(self, name: str) -> FieldDecl:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(f"{self.spelling()} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        return any(f.name == name for f in self.fields)

    def sizeof(self) -> int:
        if not self.fields:
            return 0
        return _align_up(max(f.type.sizeof() for f in self.fields), self.alignof())

    def alignof(self) -> int:
        if not self.fields:
            return 1
        return max(f.type.alignof() for f in self.fields)


@dataclass(frozen=True)
class ArrayType(Type):
    """A fixed-length array.  Multi-dimensional arrays nest ArrayTypes."""

    element: Type
    length: int

    def spelling(self) -> str:
        # Render nested array dimensions in declaration order.
        dims: List[int] = []
        t: Type = self
        while isinstance(t, ArrayType):
            dims.append(t.length)
            t = t.element
        suffix = "".join(f"[{d}]" for d in dims)
        return f"{t.spelling()}{suffix}"

    def base_element(self) -> Type:
        t: Type = self
        while isinstance(t, ArrayType):
            t = t.element
        return t

    def sizeof(self) -> int:
        return self.element.sizeof() * self.length

    def alignof(self) -> int:
        return self.element.alignof()


#: OpenCL address spaces.
PRIVATE = "private"
LOCAL = "local"
GLOBAL = "global"
CONSTANT = "constant"

ADDRESS_SPACES = (PRIVATE, LOCAL, GLOBAL, CONSTANT)
SHARED_SPACES = (LOCAL, GLOBAL)


@dataclass(frozen=True)
class PointerType(Type):
    """A pointer to ``pointee`` in a given address space."""

    pointee: Type
    address_space: str = PRIVATE
    volatile_pointee: bool = False

    def spelling(self) -> str:
        space = "" if self.address_space == PRIVATE else f"{self.address_space} "
        vol = "volatile " if self.volatile_pointee else ""
        return f"{space}{vol}{self.pointee.spelling()}*"

    def sizeof(self) -> int:
        return 8

    def alignof(self) -> int:
        return 8


VOID = VoidType()


def element_type(t: Type) -> IntType:
    """Return the scalar element type of a scalar or vector type."""
    if isinstance(t, IntType):
        return t
    if isinstance(t, VectorType):
        return t.element
    raise TypeError(f"{t} has no element type")


def common_scalar_type(a: IntType, b: IntType) -> IntType:
    """Apply (a simplified form of) the usual arithmetic conversions.

    Both operands are converted to the wider type; on a width tie the
    unsigned type wins, matching C99/OpenCL integer promotion behaviour for
    the types we model (all operands are at least ``int`` width after
    promotion in real C, but the simplification is harmless because the
    interpreter evaluates in unbounded Python integers and only narrows at
    explicit conversion points).
    """
    bits = max(a.bits, b.bits, 32)
    signed = a.signed and b.signed
    if a.bits == b.bits and (not a.signed or not b.signed):
        signed = False
    elif a.bits > b.bits:
        signed = a.signed
    elif b.bits > a.bits:
        signed = b.signed
    if bits > max(a.bits, b.bits):
        # promotion to int: signedness is preserved unless either operand is
        # an unsigned type at least as wide as int.
        signed = not (
            (not a.signed and a.bits >= 32) or (not b.signed and b.bits >= 32)
        )
    return _SIGNED_OF[bits] if signed else _UNSIGNED_OF[bits]


def types_compatible_for_assignment(dst: Type, src: Type) -> bool:
    """Check whether a value of ``src`` may be assigned to ``dst``.

    Scalars convert freely (as in C).  Vectors require an exact match: OpenCL
    forbids implicit vector conversions (paper section 4.1, VECTOR mode).
    Aggregates require identical types; pointers require identical pointee
    types and address spaces.
    """
    if isinstance(dst, IntType) and isinstance(src, IntType):
        return True
    if isinstance(dst, VectorType) or isinstance(src, VectorType):
        return dst == src
    if isinstance(dst, PointerType) and isinstance(src, PointerType):
        return dst.pointee == src.pointee and dst.address_space == src.address_space
    return dst == src


__all__ = [
    "Type",
    "VoidType",
    "IntType",
    "VectorType",
    "StructType",
    "UnionType",
    "ArrayType",
    "PointerType",
    "FieldDecl",
    "VOID",
    "CHAR",
    "UCHAR",
    "SHORT",
    "USHORT",
    "INT",
    "UINT",
    "LONG",
    "ULONG",
    "SIZE_T",
    "ALL_SCALAR_TYPES",
    "VECTOR_LENGTHS",
    "PRIVATE",
    "LOCAL",
    "GLOBAL",
    "CONSTANT",
    "ADDRESS_SPACES",
    "SHARED_SPACES",
    "scalar_by_name",
    "element_type",
    "common_scalar_type",
    "types_compatible_for_assignment",
]
