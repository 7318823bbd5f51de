"""Coroutine-based interpreter for kernel-language programs.

Each work-item (thread) is executed by a Python generator produced by
:meth:`Interpreter.run_thread`.  The generator yields control at
*scheduling points* -- barriers and atomic operations -- allowing the
work-group scheduler (:mod:`repro.runtime.scheduler`) to interleave threads,
enforce barrier semantics, detect divergence and (optionally) perturb the
order in which threads perform atomic operations.  Between scheduling points
a thread runs to completion without preemption, which matches the paper's
determinism arguments: race-free barrier communication and commutative
atomic reductions yield results independent of the interleaving.

The interpreter evaluates the *unoptimised semantics* of the program it is
given.  Miscompilation is modelled upstream: the compiler (possibly with
injected bug passes) transforms the AST, and the interpreter faithfully runs
whatever it receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, Iterator, List, Optional, Sequence, Tuple, Union

from repro.kernel_lang import ast, builtins, types as ty, values as vals
from repro.kernel_lang.semantics import UBKind
from repro.runtime import memory, ops
from repro.runtime.errors import (
    ExecutionTimeout,
    RuntimeCrash,
    UndefinedBehaviourError,
)

# ---------------------------------------------------------------------------
# Thread context and execution limits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreadContext:
    """Identifies one work-item within the NDRange (paper section 3.1).

    The linear ids are precomputed at construction (rather than recomputed by
    properties) because the race detector's memory-access hook reads them on
    every shared-memory access -- the hottest path of a checked run.
    """

    global_id: Tuple[int, int, int]
    local_id: Tuple[int, int, int]
    group_id: Tuple[int, int, int]
    global_size: Tuple[int, int, int]
    local_size: Tuple[int, int, int]
    num_groups: Tuple[int, int, int] = field(init=False, repr=False, compare=False)
    global_linear_id: int = field(init=False, repr=False, compare=False)
    local_linear_id: int = field(init=False, repr=False, compare=False)
    group_linear_id: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        num_groups = tuple(n // w for n, w in zip(self.global_size, self.local_size))
        tx, ty_, tz = self.global_id
        nx, ny, _ = self.global_size
        lx, ly, lz = self.local_id
        wx, wy, _ = self.local_size
        gx, gy, gz = self.group_id
        ngx, ngy, _ = num_groups
        object.__setattr__(self, "num_groups", num_groups)
        object.__setattr__(self, "global_linear_id", (tz * ny + ty_) * nx + tx)
        object.__setattr__(self, "local_linear_id", (lz * wy + ly) * wx + lx)
        object.__setattr__(self, "group_linear_id", (gz * ngy + gy) * ngx + gx)


@dataclass
class ExecutionLimits:
    """A step budget shared by all threads of a launch.

    The paper's campaigns use a 60-second wall-clock timeout per test; the
    simulator substitutes a deterministic budget of interpretation steps so
    that timeout outcomes are reproducible.
    """

    max_steps: int = 2_000_000
    steps: int = 0

    def tick(self, n: int = 1) -> None:
        self.steps += n
        if self.steps > self.max_steps:
            raise ExecutionTimeout(self.steps)


# Control-flow signals returned by statement execution.
_NORMAL = "normal"
_BREAK = "break"
_CONTINUE = "continue"
_RETURN = "return"


@dataclass
class _Flow:
    kind: str = _NORMAL
    value: Optional[vals.Value] = None


#: Events yielded to the scheduler.
BARRIER_EVENT = "barrier"
ATOMIC_EVENT = "atomic"


@dataclass
class SchedulerEvent:
    """An event yielded by a thread generator at a scheduling point."""

    kind: str
    barrier_site: Optional[int] = None
    fence: Optional[str] = None


_MAX_CALL_DEPTH = 64


class Interpreter:
    """Executes one program for the threads of one work-group.

    Parameters
    ----------
    program:
        The (possibly compiler-transformed) program to execute.
    global_memory:
        The launch-wide global/constant buffers.
    local_memory:
        This work-group's local buffers.
    limits:
        Shared step budget.
    access_hook:
        Optional callback receiving shared-memory accesses (for the race
        detector).
    comma_yields_zero:
        Models the Oclgrind comma-operator defect of Figure 2(f): when set,
        the comma operator evaluates both operands but yields 0.
    """

    def __init__(
        self,
        program: ast.Program,
        global_memory: memory.GlobalMemory,
        local_memory: memory.LocalMemory,
        limits: ExecutionLimits,
        access_hook: Optional[memory.AccessHook] = None,
        comma_yields_zero: bool = False,
    ) -> None:
        self.program = program
        self.global_memory = global_memory
        self.local_memory = local_memory
        self.limits = limits
        self.access_hook = access_hook
        self.comma_yields_zero = comma_yields_zero
        self._functions: Dict[str, ast.FunctionDecl] = {}
        for fn in program.functions:
            if fn.body is not None:
                self._functions[fn.name] = fn

    # ------------------------------------------------------------------
    # Thread entry point
    # ------------------------------------------------------------------

    def run_thread(self, thread: ThreadContext) -> Generator[SchedulerEvent, None, None]:
        """Generator executing the kernel for one work-item."""
        kernel = self.program.kernel()
        env = memory.Environment()
        self._bind_kernel_params(kernel, env)
        flow = yield from self._exec_block(kernel.body, env, thread, 0)
        # A return from the kernel body simply ends the thread.
        del flow

    def _bind_kernel_params(self, kernel: ast.FunctionDecl, env: memory.Environment) -> None:
        scalar_args: Dict[str, int] = dict(self.program.metadata.get("scalar_args", {}))
        for param in kernel.params:
            if isinstance(param.type, ty.PointerType):
                space = param.type.address_space
                if space in (ty.GLOBAL, ty.CONSTANT):
                    cell = self.global_memory.cell(param.name)
                elif space == ty.LOCAL:
                    cell = self.local_memory.cell(param.name)
                else:
                    raise UndefinedBehaviourError(
                        UBKind.NULL_DEREFERENCE,
                        f"kernel pointer parameter {param.name!r} in private space",
                    )
                ptr = vals.PointerValue(param.type, cell, ())
                env.declare(memory.Cell(param.name, param.type, ptr))
            elif isinstance(param.type, ty.IntType):
                raw = scalar_args.get(param.name, 0)
                env.declare(
                    memory.Cell(
                        param.name,
                        param.type,
                        vals.ScalarValue.wrap(param.type, raw),
                    )
                )
            else:
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD,
                    f"unsupported kernel parameter type {param.type}",
                )

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _exec_block(
        self,
        blk: ast.Block,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, _Flow]:
        scope = env.child()
        for stmt in blk.statements:
            flow = yield from self._exec_stmt(stmt, scope, thread, depth)
            if flow.kind != _NORMAL:
                return flow
        return _Flow()

    def _exec_stmt(
        self,
        stmt: ast.Stmt,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, _Flow]:
        self.limits.tick()
        if isinstance(stmt, ast.Block):
            return (yield from self._exec_block(stmt, env, thread, depth))
        if isinstance(stmt, ast.DeclStmt):
            yield from self._exec_decl(stmt, env, thread, depth)
            return _Flow()
        if isinstance(stmt, ast.AssignStmt):
            yield from self._exec_assign(stmt.target, stmt.value, stmt.op, env, thread, depth)
            return _Flow()
        if isinstance(stmt, ast.ExprStmt):
            yield from self._eval(stmt.expr, env, thread, depth)
            return _Flow()
        if isinstance(stmt, ast.IfStmt):
            cond = yield from self._eval(stmt.cond, env, thread, depth)
            if self._truthy(cond):
                return (yield from self._exec_block(stmt.then_block, env, thread, depth))
            if stmt.else_block is not None:
                return (yield from self._exec_block(stmt.else_block, env, thread, depth))
            return _Flow()
        if isinstance(stmt, ast.ForStmt):
            return (yield from self._exec_for(stmt, env, thread, depth))
        if isinstance(stmt, ast.WhileStmt):
            return (yield from self._exec_while(stmt, env, thread, depth))
        if isinstance(stmt, ast.ReturnStmt):
            value = None
            if stmt.value is not None:
                value = yield from self._eval(stmt.value, env, thread, depth)
            return _Flow(_RETURN, value)
        if isinstance(stmt, ast.BreakStmt):
            return _Flow(_BREAK)
        if isinstance(stmt, ast.ContinueStmt):
            return _Flow(_CONTINUE)
        if isinstance(stmt, ast.BarrierStmt):
            yield SchedulerEvent(BARRIER_EVENT, barrier_site=id(stmt), fence=stmt.fence)
            return _Flow()
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"unknown statement {type(stmt).__name__}"
        )

    def _exec_decl(
        self,
        stmt: ast.DeclStmt,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, None]:
        if stmt.init is None:
            cell = memory.Cell.uninitialised(stmt.name, stmt.type, volatile=stmt.volatile)
            env.declare(cell)
            return
        value = yield from self._eval_initialiser(stmt.init, stmt.type, env, thread, depth)
        cell = memory.Cell(stmt.name, stmt.type, value, volatile=stmt.volatile)
        env.declare(cell)

    def _exec_assign(
        self,
        target: ast.Expr,
        value_expr: ast.Expr,
        op: str,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, None]:
        lv = yield from self._eval_lvalue(target, env, thread, depth)
        rhs = yield from self._eval(value_expr, env, thread, depth)
        if op != "=":
            base_op = op[:-1]
            current = lv.read(self.access_hook)
            rhs = self._binary(base_op, current, rhs)
        lv.write(self._convert_for_store(rhs, lv.type), self.access_hook)

    def _exec_for(
        self,
        stmt: ast.ForStmt,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, _Flow]:
        scope = env.child()
        if stmt.init is not None:
            flow = yield from self._exec_stmt(stmt.init, scope, thread, depth)
            if flow.kind == _RETURN:
                return flow
        while True:
            self.limits.tick()
            if stmt.cond is not None:
                cond = yield from self._eval(stmt.cond, scope, thread, depth)
                if not self._truthy(cond):
                    break
            flow = yield from self._exec_block(stmt.body, scope, thread, depth)
            if flow.kind == _BREAK:
                break
            if flow.kind == _RETURN:
                return flow
            if stmt.update is not None:
                flow = yield from self._exec_stmt(stmt.update, scope, thread, depth)
                if flow.kind == _RETURN:
                    return flow
        return _Flow()

    def _exec_while(
        self,
        stmt: ast.WhileStmt,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, _Flow]:
        while True:
            self.limits.tick()
            cond = yield from self._eval(stmt.cond, env, thread, depth)
            if not self._truthy(cond):
                break
            flow = yield from self._exec_block(stmt.body, env, thread, depth)
            if flow.kind == _BREAK:
                break
            if flow.kind == _RETURN:
                return flow
        return _Flow()

    # ------------------------------------------------------------------
    # Initialisers
    # ------------------------------------------------------------------

    def _eval_initialiser(
        self,
        init: ast.Expr,
        target_type: ty.Type,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.Value]:
        if isinstance(init, ast.InitList):
            return (yield from self._build_from_initlist(init, target_type, env, thread, depth))
        value = yield from self._eval(init, env, thread, depth)
        return self._convert_for_store(value, target_type)

    def _build_from_initlist(
        self,
        init: ast.InitList,
        target_type: ty.Type,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.Value]:
        if isinstance(target_type, ty.StructType):
            result = vals.StructValue.zero(target_type)
            for fdecl, elem in zip(target_type.fields, init.elements):
                value = yield from self._eval_initialiser(elem, fdecl.type, env, thread, depth)
                result.set(fdecl.name, value)
            return result
        if isinstance(target_type, ty.UnionType):
            # C semantics: a braced initialiser for a union initialises its
            # *first* member (Figure 2(a) depends on this).
            result = vals.UnionValue.zero(target_type)
            if init.elements:
                first = target_type.fields[0]
                value = yield from self._eval_initialiser(
                    init.elements[0], first.type, env, thread, depth
                )
                result.set(first.name, value)
            return result
        if isinstance(target_type, ty.ArrayType):
            result = vals.ArrayValue.zero(target_type)
            for i, elem in enumerate(init.elements):
                if i >= target_type.length:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS, "excess elements in array initialiser"
                    )
                value = yield from self._eval_initialiser(
                    elem, target_type.element, env, thread, depth
                )
                result.set(i, value)
            return result
        if isinstance(target_type, (ty.IntType, ty.VectorType)):
            if len(init.elements) != 1:
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, "scalar initialised with a list"
                )
            value = yield from self._eval(init.elements[0], env, thread, depth)
            return self._convert_for_store(value, target_type)
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"cannot initialise {target_type} from a list"
        )

    # ------------------------------------------------------------------
    # L-values
    # ------------------------------------------------------------------

    def _eval_lvalue(
        self,
        expr: ast.Expr,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, memory.LValue]:
        self.limits.tick()
        if isinstance(expr, ast.VarRef):
            try:
                cell = env.lookup(expr.name)
            except KeyError as exc:
                raise UndefinedBehaviourError(
                    UBKind.UNINITIALISED_READ, f"unknown variable {expr.name!r}"
                ) from exc
            return memory.LValue(cell)
        if isinstance(expr, ast.Deref):
            ptr = yield from self._eval(expr.operand, env, thread, depth)
            return self._deref_target(ptr)
        if isinstance(expr, ast.FieldAccess):
            if expr.arrow:
                ptr = yield from self._eval(expr.base, env, thread, depth)
                base = self._pointer_target(ptr)
            else:
                base = yield from self._eval_lvalue(expr.base, env, thread, depth)
            return base.member(expr.field)
        if isinstance(expr, ast.IndexAccess):
            index = yield from self._eval(expr.index, env, thread, depth)
            idx = self._as_int(index)
            base_is_pointer = self._is_pointer_expr(expr.base, env)
            if base_is_pointer:
                ptr = yield from self._eval(expr.base, env, thread, depth)
                target = self._pointer_target(ptr)
            else:
                target = yield from self._eval_lvalue(expr.base, env, thread, depth)
            return target.index(idx)
        if isinstance(expr, ast.VectorComponent):
            base = yield from self._eval_lvalue(expr.base, env, thread, depth)
            return base.index(expr.component)
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"expression is not an lvalue: {type(expr).__name__}"
        )

    def _is_pointer_expr(self, expr: ast.Expr, env: memory.Environment) -> bool:
        """Heuristically decide whether ``expr`` evaluates to a pointer value.

        Only variable references can denote pointers in the programs this
        repository constructs (pointer-valued temporaries are never indexed),
        so the check is a cell-type lookup.
        """
        if isinstance(expr, ast.VarRef) and env.contains(expr.name):
            return isinstance(env.lookup(expr.name).type, ty.PointerType)
        return False

    def _pointer_target(self, ptr: vals.Value) -> memory.LValue:
        return ops.pointer_target(ptr)

    def _deref_target(self, ptr: vals.Value) -> memory.LValue:
        """The lvalue designated by ``*ptr`` (see :func:`ops.deref_target`)."""
        return ops.deref_target(ptr)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _eval(
        self,
        expr: ast.Expr,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.Value]:
        self.limits.tick()
        if isinstance(expr, ast.IntLiteral):
            return vals.ScalarValue.wrap(expr.type, expr.value)
        if isinstance(expr, ast.VarRef):
            lv = yield from self._eval_lvalue(expr, env, thread, depth)
            value = lv.read(self.access_hook)
            return self._decay(value)
        if isinstance(expr, ast.WorkItemExpr):
            return self._workitem_value(expr, thread)
        if isinstance(expr, ast.VectorLiteral):
            return (yield from self._eval_vector_literal(expr, env, thread, depth))
        if isinstance(expr, ast.UnaryOp):
            operand = yield from self._eval(expr.operand, env, thread, depth)
            return self._unary(expr.op, operand)
        if isinstance(expr, ast.AddressOf):
            lv = yield from self._eval_lvalue(expr.operand, env, thread, depth)
            return lv.as_pointer()
        if isinstance(expr, ast.Deref):
            lv = yield from self._eval_lvalue(expr, env, thread, depth)
            return self._decay(lv.read(self.access_hook))
        if isinstance(expr, ast.BinaryOp):
            return (yield from self._eval_binary(expr, env, thread, depth))
        if isinstance(expr, ast.Conditional):
            cond = yield from self._eval(expr.cond, env, thread, depth)
            if self._truthy(cond):
                return (yield from self._eval(expr.then, env, thread, depth))
            return (yield from self._eval(expr.otherwise, env, thread, depth))
        if isinstance(expr, ast.Cast):
            operand = yield from self._eval(expr.operand, env, thread, depth)
            return self._cast(operand, expr.type)
        if isinstance(expr, (ast.FieldAccess, ast.IndexAccess, ast.VectorComponent)):
            if self._is_lvalue_shaped(expr, env):
                lv = yield from self._eval_lvalue(expr, env, thread, depth)
                return self._decay(lv.read(self.access_hook))
            return (yield from self._eval_rvalue_access(expr, env, thread, depth))
        if isinstance(expr, ast.Call):
            return (yield from self._eval_call(expr, env, thread, depth))
        if isinstance(expr, ast.AssignExpr):
            yield from self._exec_assign(expr.target, expr.value, expr.op, env, thread, depth)
            lv = yield from self._eval_lvalue(expr.target, env, thread, depth)
            return self._decay(lv.read(self.access_hook))
        if isinstance(expr, ast.InitList):
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, "initialiser list outside a declaration"
            )
        raise UndefinedBehaviourError(
            UBKind.INVALID_FIELD, f"unknown expression {type(expr).__name__}"
        )

    def _is_lvalue_shaped(self, expr: ast.Expr, env: memory.Environment) -> bool:
        """True when ``expr`` designates storage (so reads should go through an
        lvalue); false for accesses into temporaries such as ``rotate(x,y).x``
        or ``(int2)(1, 2).y`` (Figure 2(b) and the front-end ambiguity of
        section 6 exercise the latter)."""
        if isinstance(expr, (ast.VarRef, ast.Deref)):
            return True
        if isinstance(expr, ast.FieldAccess):
            if expr.arrow:
                return True
            return self._is_lvalue_shaped(expr.base, env)
        if isinstance(expr, ast.IndexAccess):
            if self._is_pointer_expr(expr.base, env):
                return True
            return self._is_lvalue_shaped(expr.base, env)
        if isinstance(expr, ast.VectorComponent):
            return self._is_lvalue_shaped(expr.base, env)
        return False

    def _eval_rvalue_access(
        self,
        expr: ast.Expr,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.Value]:
        """Evaluate a field/index/component access into a temporary value."""
        if isinstance(expr, ast.VectorComponent):
            base = yield from self._eval(expr.base, env, thread, depth)
            if not isinstance(base, vals.VectorValue):
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, "component access on a non-vector value"
                )
            if not 0 <= expr.component < base.type.length:
                raise UndefinedBehaviourError(
                    UBKind.OUT_OF_BOUNDS, f"vector component {expr.component}"
                )
            return base.component(expr.component)
        if isinstance(expr, ast.FieldAccess):
            base = yield from self._eval(expr.base, env, thread, depth)
            if isinstance(base, (vals.StructValue, vals.UnionValue)):
                if not base.type.has_field(expr.field):
                    raise UndefinedBehaviourError(
                        UBKind.INVALID_FIELD, f"no field {expr.field!r} in {base.type}"
                    )
                return self._decay(base.get(expr.field))
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, "field access on a non-aggregate value"
            )
        if isinstance(expr, ast.IndexAccess):
            index = yield from self._eval(expr.index, env, thread, depth)
            idx = self._as_int(index)
            base = yield from self._eval(expr.base, env, thread, depth)
            if isinstance(base, vals.ArrayValue):
                if not 0 <= idx < base.type.length:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS, f"index {idx} out of bounds"
                    )
                return self._decay(base.get(idx))
            if isinstance(base, vals.VectorValue):
                if not 0 <= idx < base.type.length:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS, f"index {idx} out of bounds"
                    )
                return base.component(idx)
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, "index access on a non-array value"
            )
        raise UndefinedBehaviourError(  # pragma: no cover - defensive
            UBKind.INVALID_FIELD, f"unsupported rvalue access {type(expr).__name__}"
        )

    def _decay(self, value: vals.Value) -> vals.Value:
        """Reading an aggregate lvalue yields a copy (value semantics)."""
        return ops.decay(value)

    def _eval_vector_literal(
        self,
        expr: ast.VectorLiteral,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.VectorValue]:
        components: List[int] = []
        for elem in expr.elements:
            value = yield from self._eval(elem, env, thread, depth)
            if isinstance(value, vals.VectorValue):
                components.extend(value.elements)
            else:
                components.append(self._as_int(value))
        if len(components) == 1:
            components = components * expr.type.length
        if len(components) != expr.type.length:
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD,
                f"vector literal with {len(components)} components for {expr.type}",
            )
        return vals.VectorValue(expr.type, components)

    def _workitem_value(self, expr: ast.WorkItemExpr, thread: ThreadContext) -> vals.ScalarValue:
        d = expr.dimension
        fn = expr.function
        if fn == "get_global_id":
            raw = thread.global_id[d]
        elif fn == "get_local_id":
            raw = thread.local_id[d]
        elif fn == "get_group_id":
            raw = thread.group_id[d]
        elif fn == "get_global_size":
            raw = thread.global_size[d]
        elif fn == "get_local_size":
            raw = thread.local_size[d]
        elif fn == "get_num_groups":
            raw = thread.num_groups[d]
        elif fn == "get_linear_global_id":
            raw = thread.global_linear_id
        elif fn == "get_linear_local_id":
            raw = thread.local_linear_id
        elif fn == "get_linear_group_id":
            raw = thread.group_linear_id
        else:  # pragma: no cover - defensive
            raise UndefinedBehaviourError(UBKind.INVALID_FIELD, f"unknown work-item fn {fn}")
        return vals.ScalarValue.wrap(ty.SIZE_T, raw)

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _eval_call(
        self,
        expr: ast.Call,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.Value]:
        if expr.name == "__trap":
            raise RuntimeCrash("injected runtime fault")
        if expr.name in builtins.ATOMIC_BUILTINS:
            return (yield from self._eval_atomic(expr, env, thread, depth))
        if expr.name in builtins.SCALAR_BUILTINS:
            args = []
            for a in expr.args:
                value = yield from self._eval(a, env, thread, depth)
                args.append(value)
            return self._apply_scalar_builtin(expr.name, args)
        # User-defined function call.
        if depth >= _MAX_CALL_DEPTH:
            raise UndefinedBehaviourError(
                UBKind.OUT_OF_BOUNDS, "call depth limit exceeded"
            )
        try:
            fn = self._functions[expr.name]
        except KeyError as exc:
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, f"call to undefined function {expr.name!r}"
            ) from exc
        if len(expr.args) != len(fn.params):
            raise UndefinedBehaviourError(
                UBKind.INVALID_FIELD, f"arity mismatch calling {expr.name!r}"
            )
        call_env = memory.Environment()
        for param, arg in zip(fn.params, expr.args):
            value = yield from self._eval(arg, env, thread, depth)
            value = self._convert_for_store(value, param.type)
            call_env.declare(memory.Cell(param.name, param.type, vals.copy_value(value)))
        flow = yield from self._exec_block(fn.body, call_env, thread, depth + 1)
        if flow.kind == _RETURN and flow.value is not None:
            return flow.value
        if isinstance(fn.return_type, ty.VoidType):
            return vals.ScalarValue(ty.INT, 0)
        # Falling off the end of a value-returning function: C leaves the
        # value unspecified; we define it as 0 to keep programs deterministic.
        return vals.zero_value(fn.return_type)

    def _eval_atomic(
        self,
        expr: ast.Call,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.Value]:
        ptr = yield from self._eval(expr.args[0], env, thread, depth)
        target = self._pointer_target(ptr)
        operands: List[int] = []
        for a in expr.args[1:]:
            value = yield from self._eval(a, env, thread, depth)
            operands.append(self._as_int(value))
        # Scheduling point: the interleaving of atomics across threads is the
        # only non-determinism OpenCL 1.x permits in our kernels.
        yield SchedulerEvent(ATOMIC_EVENT)
        old_value = target.read(self.access_hook, atomic=True)
        old = self._as_int(old_value)
        result_type = target.type if isinstance(target.type, ty.IntType) else ty.UINT
        new = ops.atomic_new_value(expr.name, old, operands)
        target.write(vals.ScalarValue.wrap(result_type, new), self.access_hook, atomic=True)
        return vals.ScalarValue.wrap(result_type, old)

    def _apply_scalar_builtin(self, name: str, args: List[vals.Value]) -> vals.Value:
        return ops.apply_scalar_builtin(builtins.SCALAR_BUILTINS[name], args)

    # ------------------------------------------------------------------
    # Operators
    # ------------------------------------------------------------------

    def _truthy(self, value: vals.Value) -> bool:
        return ops.truthy(value)

    def _as_int(self, value: vals.Value) -> int:
        return ops.as_int(value)

    def _cast(self, value: vals.Value, target: ty.Type) -> vals.Value:
        return ops.cast_value(value, target)

    def _convert_for_store(self, value: vals.Value, target: ty.Type) -> vals.Value:
        return ops.convert_for_store(value, target)

    def _unary(self, op: str, operand: vals.Value) -> vals.Value:
        return ops.unary(op, operand)

    def _eval_binary(
        self,
        expr: ast.BinaryOp,
        env: memory.Environment,
        thread: ThreadContext,
        depth: int,
    ) -> Generator[SchedulerEvent, None, vals.Value]:
        op = expr.op
        if op in ("&&", "||"):
            left = yield from self._eval(expr.left, env, thread, depth)
            left_true = self._truthy(left)
            if op == "&&" and not left_true:
                return vals.ScalarValue(ty.INT, 0)
            if op == "||" and left_true:
                return vals.ScalarValue(ty.INT, 1)
            right = yield from self._eval(expr.right, env, thread, depth)
            return vals.ScalarValue(ty.INT, 1 if self._truthy(right) else 0)
        if op == ",":
            left = yield from self._eval(expr.left, env, thread, depth)
            right = yield from self._eval(expr.right, env, thread, depth)
            if self.comma_yields_zero:
                # Injected Oclgrind defect (Figure 2(f)).
                if isinstance(right, vals.ScalarValue):
                    return vals.ScalarValue(right.type, 0)
                return right
            return right
        left = yield from self._eval(expr.left, env, thread, depth)
        right = yield from self._eval(expr.right, env, thread, depth)
        return self._binary(op, left, right)

    def _binary(self, op: str, left: vals.Value, right: vals.Value) -> vals.Value:
        return ops.binary(op, left, right)


__all__ = [
    "ThreadContext",
    "ExecutionLimits",
    "SchedulerEvent",
    "BARRIER_EVENT",
    "ATOMIC_EVENT",
    "Interpreter",
]
