"""Builtin functions of the kernel language.

Two families are defined here:

* The OpenCL builtins the paper discusses: ``clamp``, ``rotate``, ``min``,
  ``max``, ``abs`` -- with their (sometimes undefined) semantics.  ``clamp``
  with ``min > max`` is undefined behaviour in OpenCL (paper section 3.1);
  our implementation raises :class:`BuiltinUndefined` which the interpreter
  converts to an undefined-behaviour report.
* The ``safe_*`` wrappers CLsmith uses so that generated programs stay free
  of undefined behaviour (paper section 4.1): ``safe_add``, ``safe_div``,
  ``safe_clamp``, ... all of which are total functions.

Atomic operations and work-item functions are *not* implemented here because
they need access to runtime state; the interpreter handles them directly.
This module only declares their names and signatures so that the semantic
checker and the printer know about them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.kernel_lang import types as ty


class BuiltinUndefined(Exception):
    """Raised by a builtin when its OpenCL semantics are undefined.

    The interpreter converts this into an :class:`UndefinedBehaviourError`
    so that the fuzzing harness can discard (or flag) the offending program.
    """


def _mask(bits: int) -> int:
    return (1 << bits) - 1


# ---------------------------------------------------------------------------
# OpenCL builtins with potentially-undefined semantics
# ---------------------------------------------------------------------------


def cl_clamp(x: int, lo: int, hi: int, type_: ty.IntType) -> int:
    """``clamp(x, lo, hi)``; undefined when ``lo > hi`` (OpenCL 1.2 s6.12.4)."""
    if lo > hi:
        raise BuiltinUndefined("clamp with min > max")
    return min(max(x, lo), hi)


def cl_rotate(x: int, y: int, type_: ty.IntType) -> int:
    """``rotate(x, y)``: left-rotate the bits of ``x`` by ``y`` places.

    Bits shifted off the left re-enter on the right.  The shift amount is
    taken modulo the bit-width (this is what the specification's wording
    implies and what all correct implementations do; the Intel bug of
    Figure 2(b) constant-folds ``rotate((uint2)(1,1),(uint2)(0,0)).x`` to
    ``0xffffffff`` instead of 1).
    """
    bits = type_.bits
    amount = y % bits
    raw = x & _mask(bits)
    rotated = ((raw << amount) | (raw >> (bits - amount))) & _mask(bits) if amount else raw
    return type_.wrap(rotated)


def cl_min(x: int, y: int, type_: ty.IntType) -> int:
    return min(x, y)


def cl_max(x: int, y: int, type_: ty.IntType) -> int:
    return max(x, y)


def cl_abs(x: int, type_: ty.IntType) -> int:
    """``abs(x)`` returns the unsigned absolute value (always defined)."""
    return type_.unsigned_variant.wrap(abs(x)) if type_.signed else x


def cl_add_sat(x: int, y: int, type_: ty.IntType) -> int:
    """Saturating addition (``add_sat``), always defined."""
    return min(max(x + y, type_.min_value), type_.max_value)


def cl_sub_sat(x: int, y: int, type_: ty.IntType) -> int:
    """Saturating subtraction (``sub_sat``), always defined."""
    return min(max(x - y, type_.min_value), type_.max_value)


def cl_hadd(x: int, y: int, type_: ty.IntType) -> int:
    """``hadd(x, y) = (x + y) >> 1`` without overflow, always defined."""
    return type_.wrap((x + y) >> 1)


def cl_mul_hi(x: int, y: int, type_: ty.IntType) -> int:
    """``mul_hi``: the high half of the full-width product."""
    full = x * y
    return type_.wrap(full >> type_.bits)


# ---------------------------------------------------------------------------
# Safe-math wrappers (CLsmith / Csmith style)
# ---------------------------------------------------------------------------


def safe_add(x: int, y: int, type_: ty.IntType) -> int:
    """Wrapping addition: signed overflow is avoided by wrapping."""
    return type_.wrap(x + y)


def safe_sub(x: int, y: int, type_: ty.IntType) -> int:
    return type_.wrap(x - y)


def safe_mul(x: int, y: int, type_: ty.IntType) -> int:
    return type_.wrap(x * y)


def safe_unary_minus(x: int, type_: ty.IntType) -> int:
    return type_.wrap(-x)


def _c_div(x: int, y: int) -> int:
    """C99 division truncates toward zero (Python's ``//`` floors)."""
    q = abs(x) // abs(y)
    return -q if (x < 0) != (y < 0) else q


def _c_mod(x: int, y: int) -> int:
    return x - _c_div(x, y) * y


def safe_div(x: int, y: int, type_: ty.IntType) -> int:
    """Division that returns the dividend when the divisor is zero or the
    quotient would overflow (the INT_MIN / -1 case)."""
    if y == 0:
        return x
    q = _c_div(x, y)
    if not type_.contains(q):
        return x
    return q


def safe_mod(x: int, y: int, type_: ty.IntType) -> int:
    """Remainder that returns the dividend for a zero divisor."""
    if y == 0:
        return x
    if type_.signed and x == type_.min_value and y == -1:
        return 0
    return _c_mod(x, y)


def safe_lshift(x: int, y: int, type_: ty.IntType) -> int:
    """Left shift with the shift amount clamped into range and the result
    wrapped, mirroring Csmith's safe shift macros."""
    amount = y % type_.bits if y >= 0 else 0
    return type_.wrap(x << amount)


def safe_rshift(x: int, y: int, type_: ty.IntType) -> int:
    """Right shift (arithmetic for signed types) with the amount clamped."""
    amount = y % type_.bits if y >= 0 else 0
    return type_.wrap(x >> amount)


def safe_clamp(x: int, lo: int, hi: int, type_: ty.IntType) -> int:
    """``(min > max ? x : clamp(x, min, max))`` -- exactly the macro the
    paper describes in section 4.1."""
    if lo > hi:
        return x
    return cl_clamp(x, lo, hi, type_)


def safe_rotate(x: int, y: int, type_: ty.IntType) -> int:
    """Rotation is always defined; the safe wrapper exists for uniformity."""
    return cl_rotate(x, y, type_)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BuiltinSpec:
    """Description of a scalar builtin.

    ``arity`` counts the value operands.  ``fn`` receives the operand values
    followed by the scalar result type.  ``total`` marks builtins that can
    never raise :class:`BuiltinUndefined` (the ``safe_*`` family).
    """

    name: str
    arity: int
    fn: Callable[..., int]
    total: bool = True


SCALAR_BUILTINS: Dict[str, BuiltinSpec] = {
    "clamp": BuiltinSpec("clamp", 3, cl_clamp, total=False),
    "rotate": BuiltinSpec("rotate", 2, cl_rotate),
    "min": BuiltinSpec("min", 2, cl_min),
    "max": BuiltinSpec("max", 2, cl_max),
    "abs": BuiltinSpec("abs", 1, cl_abs),
    "add_sat": BuiltinSpec("add_sat", 2, cl_add_sat),
    "sub_sat": BuiltinSpec("sub_sat", 2, cl_sub_sat),
    "hadd": BuiltinSpec("hadd", 2, cl_hadd),
    "mul_hi": BuiltinSpec("mul_hi", 2, cl_mul_hi),
    "safe_add": BuiltinSpec("safe_add", 2, safe_add),
    "safe_sub": BuiltinSpec("safe_sub", 2, safe_sub),
    "safe_mul": BuiltinSpec("safe_mul", 2, safe_mul),
    "safe_div": BuiltinSpec("safe_div", 2, safe_div),
    "safe_mod": BuiltinSpec("safe_mod", 2, safe_mod),
    "safe_lshift": BuiltinSpec("safe_lshift", 2, safe_lshift),
    "safe_rshift": BuiltinSpec("safe_rshift", 2, safe_rshift),
    "safe_clamp": BuiltinSpec("safe_clamp", 3, safe_clamp),
    "safe_rotate": BuiltinSpec("safe_rotate", 2, safe_rotate),
    "safe_unary_minus": BuiltinSpec("safe_unary_minus", 1, safe_unary_minus),
}

#: Builtins that are component-wise liftable to vectors (all of the above).
VECTOR_LIFTABLE = frozenset(SCALAR_BUILTINS)

#: Names of the safe wrappers (the only builtins CLsmith itself emits for
#: arithmetic; paper section 4.1).
SAFE_BUILTINS = frozenset(n for n in SCALAR_BUILTINS if n.startswith("safe_"))

#: Atomic builtins; handled by the interpreter because they touch memory.
ATOMIC_BUILTINS: Dict[str, int] = {
    "atomic_add": 2,
    "atomic_sub": 2,
    "atomic_inc": 1,
    "atomic_dec": 1,
    "atomic_min": 2,
    "atomic_max": 2,
    "atomic_and": 2,
    "atomic_or": 2,
    "atomic_xor": 2,
    "atomic_xchg": 2,
    "atomic_cmpxchg": 3,
}

#: The commutative/associative reduction operators used by ATOMIC REDUCTION
#: mode (paper section 4.2).
REDUCTION_ATOMICS = (
    "atomic_add",
    "atomic_min",
    "atomic_max",
    "atomic_or",
    "atomic_and",
    "atomic_xor",
)


def is_builtin(name: str) -> bool:
    """True if ``name`` names a scalar or atomic builtin."""
    return name in SCALAR_BUILTINS or name in ATOMIC_BUILTINS


def builtin_arity(name: str) -> int:
    if name in SCALAR_BUILTINS:
        return SCALAR_BUILTINS[name].arity
    if name in ATOMIC_BUILTINS:
        return ATOMIC_BUILTINS[name]
    raise KeyError(f"unknown builtin {name!r}")


__all__ = [
    "BuiltinUndefined",
    "BuiltinSpec",
    "SCALAR_BUILTINS",
    "VECTOR_LIFTABLE",
    "SAFE_BUILTINS",
    "ATOMIC_BUILTINS",
    "REDUCTION_ATOMICS",
    "is_builtin",
    "builtin_arity",
    "cl_clamp",
    "cl_rotate",
    "cl_min",
    "cl_max",
    "cl_abs",
    "cl_add_sat",
    "cl_sub_sat",
    "cl_hadd",
    "cl_mul_hi",
    "safe_add",
    "safe_sub",
    "safe_mul",
    "safe_div",
    "safe_mod",
    "safe_lshift",
    "safe_rshift",
    "safe_clamp",
    "safe_rotate",
    "safe_unary_minus",
]
