"""Unit tests for the individual optimisation passes and AST rewriting."""

import pytest

from repro.compiler import analysis, rewrite
from repro.compiler.driver import compile_program
from repro.compiler.passes import (
    ConstantFoldPass,
    DeadCodeEliminationPass,
    InlinePass,
    LoopUnrollPass,
    SimplifyPass,
)
from repro.compiler.pipeline import OptimisationLevel, Pipeline, default_pipeline
from repro.kernel_lang import ast, types as ty


def _wrap(statements, functions=None):
    kernel = ast.FunctionDecl(
        "entry", ty.VOID, [ast.ParamDecl("out", ty.PointerType(ty.ULONG, ty.GLOBAL))],
        ast.Block(statements), is_kernel=True,
    )
    return ast.Program(
        functions=list(functions or []) + [kernel],
        buffers=[ast.BufferSpec("out", ty.ULONG, 1, is_output=True)],
        launch=ast.LaunchSpec((1, 1, 1), (1, 1, 1)),
    )


def _kernel_stmts(program):
    return program.kernel().body.statements


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def test_side_effect_analysis():
    pure = ast.Call("safe_add", [ast.lit(1), ast.lit(2)])
    atomic = ast.Call("atomic_inc", [ast.var("p")])
    user = ast.Call("helper", [])
    assert not analysis.expr_has_side_effects(pure)
    assert analysis.expr_has_side_effects(atomic)
    assert analysis.expr_has_side_effects(user)
    assert analysis.stmt_has_side_effects(ast.BarrierStmt())
    assert not analysis.stmt_has_side_effects(ast.DeclStmt("x", ty.INT, pure))


def test_variable_read_write_analysis():
    stmt = ast.AssignStmt(ast.IndexAccess(ast.var("a"), ast.var("i")), ast.var("b"))
    assert analysis.variables_read(stmt) == {"a", "i", "b"}
    assert analysis.variables_assigned(stmt) == {"a"}
    addr = ast.ExprStmt(ast.AddressOf(ast.var("x")))
    assert "x" in analysis.variables_assigned(addr)


def test_feature_detection_helpers():
    program = _wrap([ast.BarrierStmt(), ast.out_write(ast.lit(1))])
    assert analysis.uses_barriers(program)
    assert not analysis.uses_vectors(program)
    assert not analysis.uses_atomics(program)
    assert not analysis.uses_structs(program)


def test_rewrite_map_expr_bottom_up():
    expr = ast.BinaryOp("+", ast.lit(1), ast.BinaryOp("+", ast.lit(2), ast.lit(3)))

    def bump(e):
        if isinstance(e, ast.IntLiteral):
            return ast.IntLiteral(e.value + 10, e.type)
        return e

    rewritten = rewrite.map_expr(expr, bump)
    literals = [n.value for n in rewritten.walk() if isinstance(n, ast.IntLiteral)]
    assert sorted(literals) == [11, 12, 13]
    # Original untouched.
    assert sorted(n.value for n in expr.walk() if isinstance(n, ast.IntLiteral)) == [1, 2, 3]


def test_rewrite_stmt_fn_can_delete_and_replace():
    program = _wrap([
        ast.DeclStmt("x", ty.INT, ast.lit(1)),
        ast.out_write(ast.lit(2)),
    ])

    def drop_decls(stmt):
        if isinstance(stmt, ast.DeclStmt):
            return []
        return None

    rewritten = rewrite.rewrite_program(program, stmt_fn=drop_decls)
    assert len(_kernel_stmts(rewritten)) == 1
    assert len(_kernel_stmts(program)) == 2


# ---------------------------------------------------------------------------
# Constant folding
# ---------------------------------------------------------------------------


def test_constant_fold_binary_and_builtin():
    program = _wrap([
        ast.out_write(ast.BinaryOp("*", ast.lit(6), ast.lit(7))),
        ast.ExprStmt(ast.Call("safe_add", [ast.lit(1), ast.lit(2)])),
    ])
    folded = ConstantFoldPass().run(program)
    first = _kernel_stmts(folded)[0]
    assert isinstance(first.value, ast.IntLiteral) and first.value.value == 42
    second = _kernel_stmts(folded)[1]
    assert isinstance(second.expr, ast.IntLiteral) and second.expr.value == 3


def test_constant_fold_refuses_undefined_operations():
    program = _wrap([
        ast.out_write(ast.BinaryOp("/", ast.lit(1), ast.lit(0))),
    ])
    folded = ConstantFoldPass().run(program)
    assert isinstance(_kernel_stmts(folded)[0].value, ast.BinaryOp)
    overflow = _wrap([
        ast.out_write(ast.BinaryOp("+", ast.lit(ty.INT.max_value), ast.lit(1))),
    ])
    assert isinstance(_kernel_stmts(ConstantFoldPass().run(overflow))[0].value, ast.BinaryOp)


def test_constant_fold_cast_conditional_and_comparison():
    program = _wrap([
        ast.out_write(ast.Cast(ty.UCHAR, ast.lit(300))),
        ast.ExprStmt(ast.Conditional(ast.lit(1), ast.lit(5), ast.lit(9))),
        ast.ExprStmt(ast.BinaryOp("<", ast.lit(2), ast.lit(3))),
    ])
    folded = _kernel_stmts(ConstantFoldPass().run(program))
    assert folded[0].value.value == 44
    assert folded[1].expr.value == 5
    assert folded[2].expr.value == 1


# ---------------------------------------------------------------------------
# Simplification
# ---------------------------------------------------------------------------


def test_simplify_identities():
    program = _wrap([
        ast.out_write(ast.BinaryOp("+", ast.var("out"), ast.lit(0))),
        ast.ExprStmt(ast.Call("safe_mul", [ast.var("out"), ast.lit(1)])),
        ast.ExprStmt(ast.Call("safe_clamp", [ast.lit(7), ast.lit(5), ast.lit(0)])),
    ])
    simplified = _kernel_stmts(SimplifyPass().run(program))
    assert isinstance(simplified[0].value, ast.VarRef)
    assert isinstance(simplified[1].expr, ast.VarRef)
    assert isinstance(simplified[2].expr, ast.IntLiteral) and simplified[2].expr.value == 7


def test_simplify_keeps_effectful_comma_left_operand():
    effectful = ast.BinaryOp(",", ast.Call("atomic_inc", [ast.var("out")]), ast.lit(1))
    program = _wrap([ast.ExprStmt(effectful)])
    simplified = _kernel_stmts(SimplifyPass().run(program))
    assert isinstance(simplified[0].expr, ast.BinaryOp)


def test_simplify_preserves_integer_promotion_of_narrow_operands():
    """Regression (found by the test-case reducer dogfooding itself):
    ``(uchar)e ^ 0`` has promoted type int, so the shift amount of an
    enclosing ``safe_lshift`` clamps modulo 32; dropping the ``^ 0`` narrows
    the argument to uchar and the clamp becomes modulo 8.  The identity must
    not fire when it would narrow the type -- and must still fire when the
    operand's type provably matches the promoted result."""
    from repro.runtime.device import run_program

    narrow = ast.BinaryOp(
        "^", ast.Cast(ty.UCHAR, ast.group_linear_id()), ast.lit(0)
    )
    shift = ast.Call("safe_lshift", [narrow, ast.Call("min", [ast.lit(9), ast.lit(9)])])
    program = _wrap([ast.out_write(shift)])
    simplified = SimplifyPass().run(program)
    # The ^ 0 survives (dropping it would change the clamp width)...
    assert run_program(simplified).outputs == run_program(program).outputs
    kept = _kernel_stmts(simplified)[0].value.args[0]
    assert isinstance(kept, ast.BinaryOp) and kept.op == "^"
    # ...while the same identity on an int-typed operand still fires.
    wide = ast.BinaryOp("^", ast.Cast(ty.INT, ast.group_linear_id()), ast.lit(0))
    program_wide = _wrap([ast.out_write(ast.Call("safe_lshift", [wide, ast.lit(1)]))])
    kept_wide = _kernel_stmts(SimplifyPass().run(program_wide))[0].value.args[0]
    assert isinstance(kept_wide, ast.Cast)


def test_simplify_resolves_variable_types_from_scope():
    """The scope map lets identities on declared variables keep firing when
    the declared type already matches the promoted result, and blocks them
    when it does not."""
    program = _wrap([
        ast.DeclStmt("wide", ty.UINT, ast.lit(7)),
        ast.DeclStmt("narrow", ty.UCHAR, ast.lit(7)),
        ast.out_write(ast.BinaryOp("+", ast.var("wide"), ast.lit(0))),
        ast.out_write(ast.BinaryOp("+", ast.var("narrow"), ast.lit(0))),
    ])
    simplified = _kernel_stmts(SimplifyPass().run(program))
    assert isinstance(simplified[2].value, ast.VarRef)      # uint + 0 -> uint
    assert isinstance(simplified[3].value, ast.BinaryOp)    # uchar + 0 stays


# ---------------------------------------------------------------------------
# Dead-code elimination
# ---------------------------------------------------------------------------


def test_dce_removes_unreachable_and_unused():
    program = _wrap([
        ast.DeclStmt("unused", ty.INT, ast.lit(1)),
        ast.IfStmt(ast.lit(0), ast.Block([ast.BarrierStmt()])),
        ast.out_write(ast.lit(1)),
        ast.ReturnStmt(),
        ast.out_write(ast.lit(2)),
    ])
    cleaned = _kernel_stmts(DeadCodeEliminationPass().run(program))
    kinds = [type(s).__name__ for s in cleaned]
    assert "DeclStmt" not in kinds          # unused variable removed
    assert "IfStmt" not in kinds            # statically-false branch removed
    assert kinds.count("AssignStmt") == 1   # the statement after return is gone


def test_dce_keeps_live_barriers_and_used_variables():
    program = _wrap([
        ast.DeclStmt("x", ty.INT, ast.lit(1)),
        ast.BarrierStmt(),
        ast.out_write(ast.var("x")),
    ])
    cleaned = _kernel_stmts(DeadCodeEliminationPass().run(program))
    kinds = [type(s).__name__ for s in cleaned]
    assert kinds == ["DeclStmt", "BarrierStmt", "AssignStmt"]


def test_dce_folds_literal_true_if_into_branch():
    program = _wrap([
        ast.IfStmt(ast.lit(1), ast.Block([ast.out_write(ast.lit(7))]),
                   ast.Block([ast.out_write(ast.lit(9))])),
    ])
    cleaned = _kernel_stmts(DeadCodeEliminationPass().run(program))
    assert len(cleaned) == 1
    assert cleaned[0].value.value == 7


def _out0():
    return ast.IndexAccess(ast.var("out"), ast.lit(0))


def _opt_levels_agree(program):
    """opt- and opt+ of the conformant compiler give the same result on
    both engines."""
    for engine in ("reference", "compiled"):
        outputs = [
            compile_program(program, optimisations=level).run(engine=engine).outputs
            for level in (False, True)
        ]
        assert outputs[0] == outputs[1], engine


def _shadowing_branch():
    return ast.Block([
        ast.DeclStmt("x", ty.ULONG, ast.lit(1, ty.ULONG)),
        ast.AssignStmt(_out0(), ast.var("x")),
    ])


def _taken_branch_shadows(cond, then_block, else_block):
    """``ulong x = 5; if (cond) {...} else {...} out[0] = out[0] + x;``"""
    return _wrap([
        ast.DeclStmt("x", ty.ULONG, ast.lit(5, ty.ULONG)),
        ast.IfStmt(ast.lit(cond), then_block, else_block),
        ast.AssignStmt(_out0(), ast.BinaryOp("+", _out0(), ast.var("x"))),
    ])


def _false_for_declares_outer_name():
    """``ulong i = 7; for (ulong i = 0; 0; i += 1) {} out[0] = i;``"""
    return _wrap([
        ast.DeclStmt("i", ty.ULONG, ast.lit(7, ty.ULONG)),
        ast.ForStmt(
            ast.DeclStmt("i", ty.ULONG, ast.lit(0, ty.ULONG)),
            ast.lit(0),
            ast.AssignStmt(ast.var("i"), ast.lit(1), "+="),
            ast.Block([]),
        ),
        ast.AssignStmt(_out0(), ast.var("i")),
    ])


@pytest.mark.parametrize(
    "program",
    [
        _taken_branch_shadows(1, _shadowing_branch(), None),
        _taken_branch_shadows(0, ast.Block([]), _shadowing_branch()),
        _false_for_declares_outer_name(),
    ],
    ids=["if-1-declares", "if-0-else-declares", "false-for-declares"],
)
def test_dce_keeps_declarations_in_their_scope(program):
    _opt_levels_agree(program)


# ---------------------------------------------------------------------------
# Inlining and unrolling
# ---------------------------------------------------------------------------


def test_inline_single_return_function():
    helper = ast.FunctionDecl(
        "double_it", ty.INT, [ast.ParamDecl("v", ty.INT)],
        ast.Block([ast.ReturnStmt(ast.Call("safe_mul", [ast.var("v"), ast.lit(2)]))]),
    )
    program = _wrap([ast.out_write(ast.Call("double_it", [ast.lit(21)]))],
                    functions=[helper])
    inlined = InlinePass().run(program)
    value = _kernel_stmts(inlined)[0].value
    assert isinstance(value, ast.Call) and value.name == "safe_mul"


def test_inline_skips_effectful_arguments_and_complex_bodies():
    complex_helper = ast.FunctionDecl(
        "noisy", ty.INT, [ast.ParamDecl("v", ty.INT)],
        ast.Block([ast.DeclStmt("t", ty.INT, ast.var("v")), ast.ReturnStmt(ast.var("t"))]),
    )
    program = _wrap([ast.out_write(ast.Call("noisy", [ast.lit(1)]))],
                    functions=[complex_helper])
    inlined = InlinePass().run(program)
    assert isinstance(_kernel_stmts(inlined)[0].value, ast.Call)


def test_unroll_counted_loop():
    loop = ast.ForStmt(
        ast.DeclStmt("i", ty.INT, ast.lit(0)),
        ast.BinaryOp("<", ast.var("i"), ast.lit(3)),
        ast.AssignStmt(ast.var("i"), ast.lit(1), "+="),
        ast.Block([ast.AssignStmt(ast.var("acc"), ast.var("i"), "+=")]),
    )
    program = _wrap([ast.DeclStmt("acc", ty.INT, ast.lit(0)), loop,
                     ast.out_write(ast.var("acc"))])
    unrolled = LoopUnrollPass().run(program)
    assert not any(isinstance(s, ast.ForStmt) for s in _kernel_stmts(unrolled))


def test_unroll_skips_loops_with_barriers_or_large_trip_counts():
    barrier_loop = ast.ForStmt(
        ast.DeclStmt("i", ty.INT, ast.lit(0)),
        ast.BinaryOp("<", ast.var("i"), ast.lit(3)),
        ast.AssignStmt(ast.var("i"), ast.lit(1), "+="),
        ast.Block([ast.BarrierStmt()]),
    )
    big_loop = ast.ForStmt(
        ast.DeclStmt("i", ty.INT, ast.lit(0)),
        ast.BinaryOp("<", ast.var("i"), ast.lit(100)),
        ast.AssignStmt(ast.var("i"), ast.lit(1), "+="),
        ast.Block([]),
    )
    program = _wrap([barrier_loop, big_loop, ast.out_write(ast.lit(0))])
    unrolled = LoopUnrollPass().run(program)
    assert sum(isinstance(s, ast.ForStmt) for s in _kernel_stmts(unrolled)) == 2


def test_unroll_leaves_loops_over_an_outer_variable_alone():
    """``uchar i = 0; for (i = 1; i < 3; i += 1) out[0] = safe_lshift(i, 9);``
    -- unrolling with ``int i`` copies would shift by 9, not by 9 % 8."""
    loop = ast.ForStmt(
        ast.AssignStmt(ast.var("i"), ast.lit(1)),
        ast.BinaryOp("<", ast.var("i"), ast.lit(3)),
        ast.AssignStmt(ast.var("i"), ast.lit(1), "+="),
        ast.Block([
            ast.AssignStmt(
                _out0(), ast.Cast(ty.ULONG, ast.Call("safe_lshift", [ast.var("i"), ast.lit(9)]))
            ),
        ]),
    )
    program = _wrap([ast.DeclStmt("i", ty.UCHAR, ast.lit(0, ty.UCHAR)), loop])
    _opt_levels_agree(program)
    assert LoopUnrollPass().run(program) is program


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


def test_pipeline_levels():
    assert default_pipeline(OptimisationLevel.NONE).passes == []
    full = default_pipeline(OptimisationLevel.FULL)
    assert len(full.passes) >= 5
    assert "constant-fold" in full.describe()
    assert OptimisationLevel.from_flag(True) is OptimisationLevel.FULL
    assert OptimisationLevel.from_flag(False) is OptimisationLevel.NONE


def test_pipeline_runs_passes_in_order():
    program = _wrap([
        ast.out_write(ast.BinaryOp("+", ast.BinaryOp("*", ast.lit(6), ast.lit(7)), ast.lit(0))),
    ])
    optimised = default_pipeline().run(program)
    value = _kernel_stmts(optimised)[0].value
    assert isinstance(value, ast.IntLiteral) and value.value == 42
