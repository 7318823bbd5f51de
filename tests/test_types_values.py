"""Unit and property tests for the type system and the value model."""

import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.kernel_lang import types as ty
from repro.kernel_lang import values as vals


# ---------------------------------------------------------------------------
# Scalar types
# ---------------------------------------------------------------------------


def test_scalar_widths_follow_opencl():
    assert ty.CHAR.bits == 8 and ty.CHAR.signed
    assert ty.UCHAR.bits == 8 and not ty.UCHAR.signed
    assert ty.INT.bits == 32 and ty.INT.sizeof() == 4
    assert ty.ULONG.bits == 64 and ty.ULONG.max_value == 2**64 - 1
    assert ty.LONG.min_value == -(2**63)


def test_scalar_lookup_by_name():
    assert ty.scalar_by_name("uint") is ty.UINT
    assert ty.scalar_by_name("size_t") is ty.SIZE_T
    with pytest.raises(KeyError):
        ty.scalar_by_name("float")


@given(st.integers(min_value=-(2**70), max_value=2**70))
def test_wrap_is_idempotent_and_in_range(value):
    for t in ty.ALL_SCALAR_TYPES:
        wrapped = t.wrap(value)
        assert t.contains(wrapped)
        assert t.wrap(wrapped) == wrapped


@given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
def test_encode_decode_roundtrip(value):
    for t in ty.ALL_SCALAR_TYPES:
        wrapped = t.wrap(value)
        assert t.decode(t.encode(wrapped)) == wrapped


def test_two_complement_wrap_examples():
    assert ty.CHAR.wrap(200) == -56
    assert ty.UCHAR.wrap(-1) == 255
    assert ty.INT.wrap(2**31) == -(2**31)
    assert ty.UINT.wrap(-1) == 0xFFFFFFFF


@pytest.mark.parametrize("roundtrip", [copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))])
def test_int_types_survive_copy_and_pickle(roundtrip):
    """The process backend ships programs by pickle, and an IntType's range
    and wrap masks live on the instance, not in its fields (nor in its
    pickled state: tests/test_triage_store.py checks that format)."""
    for t in ty.ALL_SCALAR_TYPES + (ty.SIZE_T,):
        clone = roundtrip(t)
        assert clone == t and hash(clone) == hash(t)
        assert (clone.min_value, clone.max_value) == (t.min_value, t.max_value)
        for value in (t.min_value - 1, t.min_value, -1, 0, t.max_value, t.max_value + 1):
            assert clone.wrap(value) == t.wrap(value)


def test_signed_unsigned_variants():
    assert ty.CHAR.unsigned_variant is ty.UCHAR
    assert ty.ULONG.signed_variant is ty.LONG


def test_common_scalar_type_promotes_to_int():
    assert ty.common_scalar_type(ty.CHAR, ty.SHORT) == ty.INT
    assert ty.common_scalar_type(ty.INT, ty.UINT) == ty.UINT
    assert ty.common_scalar_type(ty.LONG, ty.INT) == ty.LONG
    assert ty.common_scalar_type(ty.ULONG, ty.INT) == ty.ULONG


# ---------------------------------------------------------------------------
# Vector, struct, union, array and pointer types
# ---------------------------------------------------------------------------


def test_vector_type_spelling_and_size():
    v = ty.VectorType(ty.INT, 4)
    assert v.spelling() == "int4"
    assert v.sizeof() == 16
    with pytest.raises(ValueError):
        ty.VectorType(ty.INT, 5)


def test_struct_layout_uses_natural_alignment():
    s = ty.StructType("S", (ty.FieldDecl("a", ty.CHAR), ty.FieldDecl("b", ty.SHORT)))
    assert s.layout() == [("a", 0), ("b", 2)]
    assert s.sizeof() == 4
    assert s.alignof() == 2


def test_struct_field_lookup():
    s = ty.StructType("S", (ty.FieldDecl("x", ty.INT),))
    assert s.field("x").type is ty.INT
    assert s.has_field("x") and not s.has_field("y")
    with pytest.raises(KeyError):
        s.field("y")


def test_union_size_is_largest_member():
    inner = ty.StructType("S", (ty.FieldDecl("c", ty.SHORT), ty.FieldDecl("d", ty.LONG)))
    u = ty.UnionType("U", (ty.FieldDecl("a", ty.UINT), ty.FieldDecl("b", inner)))
    assert u.sizeof() == inner.sizeof()
    assert u.alignof() == 8


def test_array_type_nesting_and_spelling():
    arr = ty.ArrayType(ty.ArrayType(ty.ULONG, 3), 9)
    assert arr.sizeof() == 9 * 3 * 8
    assert arr.spelling() == "ulong[9][3]"
    assert arr.base_element() is ty.ULONG


def test_pointer_type_spelling_includes_address_space():
    p = ty.PointerType(ty.ULONG, ty.GLOBAL)
    assert "global" in p.spelling()
    assert p.sizeof() == 8


def test_assignment_compatibility_rules():
    assert ty.types_compatible_for_assignment(ty.INT, ty.CHAR)
    v4 = ty.VectorType(ty.INT, 4)
    assert ty.types_compatible_for_assignment(v4, v4)
    assert not ty.types_compatible_for_assignment(v4, ty.VectorType(ty.UINT, 4))
    assert not ty.types_compatible_for_assignment(v4, ty.INT)


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def test_scalar_value_wrap_and_cast():
    v = vals.ScalarValue.wrap(ty.UCHAR, 300)
    assert v.value == 44
    assert v.cast(ty.CHAR).value == 44
    assert vals.ScalarValue.wrap(ty.INT, -1).cast(ty.UINT).value == 0xFFFFFFFF


def test_scalar_value_out_of_range_rejected():
    with pytest.raises(vals.KernelValueError):
        vals.ScalarValue(ty.CHAR, 1000)


def test_vector_value_components():
    v4 = ty.VectorType(ty.UINT, 4)
    v = vals.VectorValue(v4, [1, 2, 3, 4])
    assert v.component(2).value == 3
    assert v.with_component(0, 9).elements == [9, 2, 3, 4]
    assert vals.VectorValue.splat(v4, 7).elements == [7, 7, 7, 7]


def test_struct_value_zero_and_copy_independence():
    s = ty.StructType("S", (ty.FieldDecl("a", ty.INT), ty.FieldDecl("b", ty.SHORT)))
    original = vals.StructValue.zero(s)
    copy = original.copy()
    copy.set("a", vals.scalar(ty.INT, 5))
    assert original.get("a").value == 0
    assert copy.get("a").value == 5


def test_union_reinterpretation_through_bytes():
    inner = ty.StructType("S", (ty.FieldDecl("c", ty.SHORT), ty.FieldDecl("d", ty.LONG)))
    u_type = ty.UnionType("U", (ty.FieldDecl("a", ty.UINT), ty.FieldDecl("b", inner)))
    u = vals.UnionValue.zero(u_type)
    u.set("a", vals.scalar(ty.UINT, 0x00010002))
    # Reading the struct member reinterprets the same bytes.
    b = u.get("b")
    assert b.get("c").value == 0x0002
    assert u.get("a").value == 0x00010002


def test_union_partial_write_keeps_other_bytes():
    inner = ty.StructType("S", (ty.FieldDecl("c", ty.SHORT), ty.FieldDecl("d", ty.LONG)))
    u_type = ty.UnionType("U", (ty.FieldDecl("a", ty.UINT), ty.FieldDecl("b", inner)))
    u = vals.UnionValue(u_type, bytearray(b"\xff" * u_type.sizeof()))
    u.set("a", vals.scalar(ty.UINT, 1))
    assert u.get("a").value == 1
    # Bytes beyond the written member are untouched.
    assert u.storage[4] == 0xFF


def test_array_value_roundtrip_and_encode():
    arr_type = ty.ArrayType(ty.USHORT, 3)
    arr = vals.ArrayValue(arr_type, [vals.scalar(ty.USHORT, v) for v in (1, 2, 3)])
    decoded = vals.decode_value(arr_type, vals.encode_value(arr))
    assert [e.value for e in decoded.elements] == [1, 2, 3]


@given(st.lists(st.integers(min_value=0, max_value=2**16 - 1), min_size=4, max_size=4))
def test_struct_encode_decode_roundtrip(values):
    s = ty.StructType(
        "S",
        (ty.FieldDecl("a", ty.USHORT), ty.FieldDecl("b", ty.USHORT),
         ty.FieldDecl("c", ty.USHORT), ty.FieldDecl("d", ty.USHORT)),
    )
    sv = vals.StructValue(s, {
        name: vals.scalar(ty.USHORT, v) for name, v in zip("abcd", values)
    })
    decoded = vals.decode_value(s, vals.encode_value(sv))
    assert all(decoded.get(n).value == v for n, v in zip("abcd", values))


def test_zero_value_for_every_kind():
    s = ty.StructType("S", (ty.FieldDecl("a", ty.INT),))
    for t in (ty.INT, ty.VectorType(ty.INT, 2), s, ty.ArrayType(ty.INT, 3),
              ty.PointerType(ty.INT)):
        z = vals.zero_value(t)
        assert z is not None
    assert vals.zero_value(ty.PointerType(ty.INT)).is_null


def test_values_equal_compares_structurally():
    assert vals.values_equal(vals.scalar(ty.INT, 3), vals.scalar(ty.INT, 3))
    assert not vals.values_equal(vals.scalar(ty.INT, 3), vals.scalar(ty.INT, 4))
    v2 = ty.VectorType(ty.INT, 2)
    assert vals.values_equal(vals.VectorValue(v2, [1, 2]), vals.VectorValue(v2, [1, 2]))
