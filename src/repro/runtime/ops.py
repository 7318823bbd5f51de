"""Engine-independent value semantics for the kernel language.

These functions define what the kernel language's operators, conversions and
builtins *mean* on runtime values.  They were extracted from the tree-walking
interpreter so that every execution engine (the reference walker of
:mod:`repro.runtime.interpreter` and the compile-to-closures backend of
:mod:`repro.runtime.compiled`) evaluates through literally the same code:
engines may differ in how they dispatch and traverse, never in what an
operator computes or which undefined behaviours it reports.

Everything here is a pure function over :mod:`repro.kernel_lang.values`
values (plus :class:`~repro.runtime.memory.LValue` construction for pointer
targets).  No function ticks the step budget, touches scheduler state or
calls access hooks -- those responsibilities stay with the engines.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.kernel_lang import ast, builtins, types as ty, values as vals
from repro.kernel_lang.semantics import UBKind
from repro.runtime import memory
from repro.runtime.errors import UndefinedBehaviourError

# ---------------------------------------------------------------------------
# Scalar coercions and truthiness
# ---------------------------------------------------------------------------


def truthy(value: vals.Value) -> bool:
    """C boolean conversion; vectors and aggregates are UB in scalar context."""
    if isinstance(value, vals.ScalarValue):
        return value.value != 0
    if isinstance(value, vals.PointerValue):
        return not value.is_null
    if isinstance(value, vals.VectorValue):
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, "vector value used in a scalar boolean context"
        )
    raise UndefinedBehaviourError(
        UBKind.INVALID_FIELD, "aggregate used in a boolean context"
    )


def as_int(value: vals.Value) -> int:
    if isinstance(value, vals.ScalarValue):
        return value.value
    raise UndefinedBehaviourError(
        UBKind.INVALID_FIELD, f"expected a scalar, got {type(value).__name__}"
    )


def decay(value: vals.Value) -> vals.Value:
    """Reading an aggregate lvalue yields a copy (value semantics)."""
    if isinstance(value, (vals.StructValue, vals.UnionValue, vals.ArrayValue)):
        return value.copy()
    return value


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def cast_value(value: vals.Value, target: ty.Type) -> vals.Value:
    """Explicit cast ``(target)value``."""
    if isinstance(target, ty.IntType):
        if isinstance(value, vals.ScalarValue):
            return value.cast(target)
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"cannot cast {type(value).__name__} to {target}"
        )
    if isinstance(target, ty.VectorType):
        if isinstance(value, vals.VectorValue) and value.type.length == target.length:
            return vals.VectorValue(
                target, [target.element.wrap(e) for e in value.elements]
            )
        if isinstance(value, vals.ScalarValue):
            return vals.VectorValue.splat(target, target.element.wrap(value.value))
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"cannot cast to vector type {target}"
        )
    if isinstance(target, ty.PointerType) and isinstance(value, vals.PointerValue):
        return vals.PointerValue(target, value.cell, value.path)
    raise UndefinedBehaviourError(
        UBKind.INVALID_FIELD, f"unsupported cast to {target}"
    )


def convert_for_store(value: vals.Value, target: ty.Type) -> vals.Value:
    """Implicit conversion applied when storing ``value`` into ``target``."""
    if isinstance(target, ty.IntType):
        if isinstance(value, vals.ScalarValue):
            return value.cast(target)
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"cannot store {type(value).__name__} into {target}"
        )
    if isinstance(target, ty.VectorType):
        if isinstance(value, vals.VectorValue):
            if value.type.length != target.length:
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, "vector length mismatch in assignment"
                )
            return vals.VectorValue(
                target, [target.element.wrap(e) for e in value.elements]
            )
        if isinstance(value, vals.ScalarValue):
            return vals.VectorValue.splat(target, target.element.wrap(value.value))
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, "cannot store a non-vector into a vector"
        )
    if isinstance(target, ty.PointerType):
        if isinstance(value, vals.PointerValue):
            return vals.PointerValue(target, value.cell, value.path)
        if isinstance(value, vals.ScalarValue) and value.value == 0:
            return vals.PointerValue(target)  # null pointer constant
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, "cannot store a non-pointer into a pointer"
        )
    if isinstance(target, (ty.StructType, ty.UnionType, ty.ArrayType)):
        if isinstance(value, (vals.StructValue, vals.UnionValue, vals.ArrayValue)):
            return vals.copy_value(value)
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"cannot store scalar into aggregate {target}"
        )
    raise UndefinedBehaviourError(UBKind.INVALID_FIELD, f"cannot store into {target}")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------


def unary_scalar(op: str, value: int, type_: ty.IntType) -> int:
    if op == "+":
        return value
    if op == "-":
        result = -value
        if type_.signed and not type_.contains(result):
            raise UndefinedBehaviourError(UBKind.SIGNED_OVERFLOW, "unary minus overflow")
        return type_.wrap(result)
    if op == "~":
        return type_.wrap(~value)
    if op == "!":
        return 0 if value else 1
    raise UndefinedBehaviourError(UBKind.INVALID_FIELD, f"unknown unary operator {op}")


def unary(op: str, operand: vals.Value) -> vals.Value:
    if isinstance(operand, vals.VectorValue):
        elems = [unary_scalar(op, e, operand.type.element) for e in operand.elements]
        return vals.VectorValue(operand.type, elems)
    if isinstance(operand, vals.ScalarValue):
        if op == "!":
            return vals.ScalarValue(ty.INT, 0 if operand.value else 1)
        result_type = operand.type if operand.type.bits >= 32 else ty.INT
        raw = unary_scalar(op, operand.value, result_type)
        return vals.ScalarValue.wrap(result_type, raw)
    if isinstance(operand, vals.PointerValue) and op == "!":
        return vals.ScalarValue(ty.INT, 1 if operand.is_null else 0)
    raise UndefinedBehaviourError(UBKind.INVALID_FIELD, f"bad operand for unary {op}")


#: The comparison operators on raw ints, each yielding 1 or 0.  The compiled
#: engine picks an entry at lowering time; :func:`compare` dispatches here.
COMPARISONS = {
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
}


def compare(op: str, a: int, b: int) -> int:
    fn = COMPARISONS.get(op)
    if fn is None:
        raise UndefinedBehaviourError(UBKind.INVALID_FIELD, f"unknown comparison {op}")
    return fn(a, b)


def scalar_arith(op: str, a: int, b: int, type_: ty.IntType) -> int:
    """Raw C-like arithmetic with UB detection for unsafe operators."""
    if op == "+":
        result = a + b
    elif op == "-":
        result = a - b
    elif op == "*":
        result = a * b
    elif op == "/":
        if b == 0:
            raise UndefinedBehaviourError(UBKind.DIVISION_BY_ZERO)
        result = builtins._c_div(a, b)
    elif op == "%":
        if b == 0:
            raise UndefinedBehaviourError(UBKind.DIVISION_BY_ZERO)
        result = builtins._c_mod(a, b)
    elif op == "<<":
        if b < 0 or b >= type_.bits:
            raise UndefinedBehaviourError(
                UBKind.SHIFT_OUT_OF_RANGE, f"shift by {b} on {type_.spelling()}"
            )
        result = a << b
    elif op == ">>":
        if b < 0 or b >= type_.bits:
            raise UndefinedBehaviourError(
                UBKind.SHIFT_OUT_OF_RANGE, f"shift by {b} on {type_.spelling()}"
            )
        result = a >> b
    elif op == "&":
        result = type_.wrap(a) & type_.wrap(b) if not type_.signed else a & b
    elif op == "|":
        result = type_.wrap(a) | type_.wrap(b) if not type_.signed else a | b
    elif op == "^":
        result = type_.wrap(a) ^ type_.wrap(b) if not type_.signed else a ^ b
    else:
        raise UndefinedBehaviourError(UBKind.INVALID_FIELD, f"unknown operator {op}")
    if op in ("+", "-", "*", "<<") and type_.signed and not type_.contains(result):
        raise UndefinedBehaviourError(
            UBKind.SIGNED_OVERFLOW, f"{a} {op} {b} overflows {type_.spelling()}"
        )
    return type_.wrap(result)


def pointer_binary(op: str, left: vals.Value, right: vals.Value) -> vals.Value:
    if op in ("==", "!="):
        same = (
            isinstance(left, vals.PointerValue)
            and isinstance(right, vals.PointerValue)
            and left.cell is right.cell
            and left.path == right.path
        )
        truth = same if op == "==" else not same
        return vals.ScalarValue(ty.INT, 1 if truth else 0)
    raise UndefinedBehaviourError(
        UBKind.INVALID_FIELD, f"unsupported pointer operation {op}"
    )


def vector_binary(op: str, left: vals.Value, right: vals.Value) -> vals.Value:
    if isinstance(left, vals.VectorValue):
        vtype = left.type
    else:
        vtype = right.type  # type: ignore[union-attr]
    length = vtype.length

    def component(value: vals.Value, i: int) -> int:
        if isinstance(value, vals.VectorValue):
            return value.elements[i]
        return as_int(value)

    if (
        isinstance(left, vals.VectorValue)
        and isinstance(right, vals.VectorValue)
        and left.type.length != right.type.length
    ):
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, "vector length mismatch in binary operation"
        )
    if op in ast.COMPARISON_OPERATORS:
        # OpenCL vector comparisons yield -1 (all bits set) for true.
        result_elem = vtype.element.signed_variant
        rtype = ty.VectorType(result_elem, length)
        elems = [
            -1 if compare(op, component(left, i), component(right, i)) else 0
            for i in range(length)
        ]
        return vals.VectorValue(rtype, elems)
    if op in ("&&", "||"):
        result_elem = vtype.element.signed_variant
        rtype = ty.VectorType(result_elem, length)
        elems = []
        for i in range(length):
            a, b = component(left, i), component(right, i)
            truth = (a != 0 and b != 0) if op == "&&" else (a != 0 or b != 0)
            elems.append(-1 if truth else 0)
        return vals.VectorValue(rtype, elems)
    elems = [
        scalar_arith(op, component(left, i), component(right, i), vtype.element)
        for i in range(length)
    ]
    return vals.VectorValue(vtype, elems)


def binary(op: str, left: vals.Value, right: vals.Value) -> vals.Value:
    """Strict (non-short-circuiting) binary operator on evaluated operands."""
    if isinstance(left, vals.PointerValue) or isinstance(right, vals.PointerValue):
        return pointer_binary(op, left, right)
    if isinstance(left, vals.VectorValue) or isinstance(right, vals.VectorValue):
        return vector_binary(op, left, right)
    if not isinstance(left, vals.ScalarValue) or not isinstance(right, vals.ScalarValue):
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"bad operands for binary {op}"
        )
    if op in ast.COMPARISON_OPERATORS:
        result = compare(op, left.value, right.value)
        return vals.ScalarValue(ty.INT, result)
    result_type = ty.common_scalar_type(left.type, right.type)
    raw = scalar_arith(op, left.value, right.value, result_type)
    return vals.ScalarValue.wrap(result_type, raw)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------


def builtin_result_type(args: Sequence[vals.Value]) -> ty.IntType:
    for a in args:
        if isinstance(a, vals.ScalarValue):
            return a.type
    return ty.INT


def mk_scalar(type_: ty.IntType, wrapped: int) -> vals.ScalarValue:
    """Construct a ScalarValue from an already-wrapped raw value.

    ``ScalarValue.wrap`` wraps and then re-validates in ``__post_init__``;
    when the raw value has already been wrapped into range (by
    ``type_.wrap``, :func:`scalar_arith`, ...) that validation is redundant,
    and skipping the dataclass constructor is a large win on the hottest
    engine paths.  The resulting object is indistinguishable from a checked
    one.
    """
    value = vals.ScalarValue.__new__(vals.ScalarValue)
    value.type = type_
    value.value = wrapped
    return value


def apply_scalar_builtin_fast(
    spec: builtins.BuiltinSpec, args: List[vals.Value]
) -> vals.Value:
    """All-scalar fast path of :func:`apply_scalar_builtin` (same semantics,
    unchecked result construction); anything else falls back."""
    if not args:
        return apply_scalar_builtin(spec, args)
    for a in args:
        if a.__class__ is not vals.ScalarValue:
            return apply_scalar_builtin(spec, args)
    scalar_type = args[0].type
    try:
        result = spec.fn(*[a.value for a in args], scalar_type)
    except builtins.BuiltinUndefined as exc:
        raise UndefinedBehaviourError(UBKind.BUILTIN_UNDEFINED, str(exc)) from exc
    return mk_scalar(scalar_type, scalar_type.wrap(result))


# ---------------------------------------------------------------------------
# Rvalue accesses into temporaries (used by the compiled engine)
# ---------------------------------------------------------------------------


def rvalue_component(value: vals.Value, comp: int) -> vals.Value:
    """``tmp.x`` -- component access into a vector temporary."""
    if not isinstance(value, vals.VectorValue):
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, "component access on a non-vector value"
        )
    if not 0 <= comp < value.type.length:
        raise UndefinedBehaviourError(UBKind.OUT_OF_BOUNDS, f"vector component {comp}")
    return value.component(comp)


def rvalue_field(value: vals.Value, fname: str) -> vals.Value:
    """``tmp.f`` -- field access into an aggregate temporary."""
    if isinstance(value, (vals.StructValue, vals.UnionValue)):
        if not value.type.has_field(fname):
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, f"no field {fname!r} in {value.type}"
            )
        return decay(value.get(fname))
    raise UndefinedBehaviourError(
        UBKind.INVALID_FIELD, "field access on a non-aggregate value"
    )


def rvalue_index(value: vals.Value, idx: int) -> vals.Value:
    """``tmp[i]`` -- index access into an array/vector temporary."""
    if isinstance(value, vals.ArrayValue):
        if not 0 <= idx < value.type.length:
            raise UndefinedBehaviourError(
                UBKind.OUT_OF_BOUNDS, f"index {idx} out of bounds"
            )
        return decay(value.get(idx))
    if isinstance(value, vals.VectorValue):
        if not 0 <= idx < value.type.length:
            raise UndefinedBehaviourError(
                UBKind.OUT_OF_BOUNDS, f"index {idx} out of bounds"
            )
        return value.component(idx)
    raise UndefinedBehaviourError(
        UBKind.INVALID_FIELD, "index access on a non-array value"
    )


def workitem_raw(function: str, dimension: int, context) -> int:
    """The raw integer a work-item function returns for ``context``.

    ``context`` is a :class:`~repro.runtime.interpreter.ThreadContext` (typed
    loosely to keep this module free of runtime imports beyond memory).
    """
    if function == "get_global_id":
        return context.global_id[dimension]
    if function == "get_local_id":
        return context.local_id[dimension]
    if function == "get_group_id":
        return context.group_id[dimension]
    if function == "get_global_size":
        return context.global_size[dimension]
    if function == "get_local_size":
        return context.local_size[dimension]
    if function == "get_num_groups":
        return context.num_groups[dimension]
    if function == "get_linear_global_id":
        return context.global_linear_id
    if function == "get_linear_local_id":
        return context.local_linear_id
    if function == "get_linear_group_id":
        return context.group_linear_id
    raise UndefinedBehaviourError(  # pragma: no cover - defensive
        UBKind.INVALID_FIELD, f"unknown work-item fn {function}"
    )


def apply_scalar_builtin(spec: builtins.BuiltinSpec, args: List[vals.Value]) -> vals.Value:
    """Apply a scalar builtin (component-wise lifted over vector operands)."""
    vector_args = [a for a in args if isinstance(a, vals.VectorValue)]
    try:
        if vector_args:
            vtype = vector_args[0].type
            length = vtype.length
            components: List[int] = []
            for i in range(length):
                scalars = []
                for a in args:
                    if isinstance(a, vals.VectorValue):
                        scalars.append(a.elements[i])
                    else:
                        scalars.append(as_int(a))
                components.append(spec.fn(*scalars, vtype.element))
            return vals.VectorValue(vtype, components)
        scalar_type = builtin_result_type(args)
        ints = [as_int(a) for a in args]
        result = spec.fn(*ints, scalar_type)
        return vals.ScalarValue.wrap(scalar_type, result)
    except builtins.BuiltinUndefined as exc:
        raise UndefinedBehaviourError(UBKind.BUILTIN_UNDEFINED, str(exc)) from exc


#: New-value computation for each atomic builtin: (old, operands) -> new.
ATOMIC_OPS = {
    "atomic_add": lambda old, operands: old + operands[0],
    "atomic_sub": lambda old, operands: old - operands[0],
    "atomic_inc": lambda old, operands: old + 1,
    "atomic_dec": lambda old, operands: old - 1,
    "atomic_min": lambda old, operands: min(old, operands[0]),
    "atomic_max": lambda old, operands: max(old, operands[0]),
    "atomic_and": lambda old, operands: old & operands[0],
    "atomic_or": lambda old, operands: old | operands[0],
    "atomic_xor": lambda old, operands: old ^ operands[0],
    "atomic_xchg": lambda old, operands: operands[0],
    "atomic_cmpxchg": lambda old, operands: operands[1] if old == operands[0] else old,
}


def atomic_new_value(name: str, old: int, operands: Sequence[int]) -> int:
    try:
        fn = ATOMIC_OPS[name]
    except KeyError:  # pragma: no cover - defensive
        raise UndefinedBehaviourError(UBKind.INVALID_FIELD, f"unknown atomic {name}")
    return fn(old, operands)


# ---------------------------------------------------------------------------
# Pointer targets
# ---------------------------------------------------------------------------


def pointer_target(ptr: vals.Value) -> memory.LValue:
    """The lvalue a pointer designates; UB for non-pointers and null."""
    if not isinstance(ptr, vals.PointerValue):
        raise UndefinedBehaviourError(
            UBKind.NULL_DEREFERENCE, "dereference of a non-pointer value"
        )
    if ptr.is_null:
        raise UndefinedBehaviourError(UBKind.NULL_DEREFERENCE)
    return memory.lvalue_from_pointer(ptr)


def deref_target(ptr: vals.Value) -> memory.LValue:
    """The lvalue designated by ``*ptr``.

    A pointer bound to a buffer argument designates the whole array while
    its static pointee type is the element type (OpenCL buffer arguments
    decay this way), so dereferencing such a pointer yields element 0;
    indexing (handled elsewhere) yields element i.
    """
    lv = pointer_target(ptr)
    if (
        isinstance(ptr, vals.PointerValue)
        and isinstance(ptr.type, ty.PointerType)
        and not isinstance(ptr.type.pointee, ty.ArrayType)
        and isinstance(lv.type, ty.ArrayType)
    ):
        return lv.index(0)
    return lv


__all__ = [
    "truthy",
    "as_int",
    "decay",
    "cast_value",
    "convert_for_store",
    "unary",
    "unary_scalar",
    "COMPARISONS",
    "compare",
    "scalar_arith",
    "pointer_binary",
    "vector_binary",
    "binary",
    "builtin_result_type",
    "apply_scalar_builtin",
    "apply_scalar_builtin_fast",
    "mk_scalar",
    "rvalue_component",
    "rvalue_field",
    "rvalue_index",
    "workitem_raw",
    "ATOMIC_OPS",
    "atomic_new_value",
    "pointer_target",
    "deref_target",
]
