"""Lowering pass: kernel AST -> nested Python closures.

The reference interpreter pays, for every AST node a thread touches, a
generator resume, an isinstance dispatch chain and a handful of method calls.
This module removes all of that from the per-thread hot path by walking the
AST *once per launch* and emitting a tree of closures:

* **dispatch is pre-resolved** -- each closure knows statically which node it
  executes, which builtin it calls, which operator it applies;
* **variables are slot-resolved** -- lexical scoping is resolved at lowering
  time into indices into a flat per-frame ``locals`` list, so there is no
  name lookup (and no Environment chain) at runtime;
* **memory is pre-bound** -- global/constant buffer cells are bound at
  prepare time, local buffer cells at group-bind time, and per-thread
  work-item values (``get_global_id`` and friends, with the linear ids
  precomputed by :class:`ThreadContext`) are materialised once per thread;
* **coroutine overhead is paid only where scheduling can happen** -- a yield
  analysis (barriers, atomics, calls to functions that transitively contain
  them) decides per subtree whether a closure must be a generator; straight
  line compute compiles to plain closures;
* **integers travel unboxed** -- a node whose value is statically an integer
  of a known type (literals, int variables and parameters, work-item
  values, int casts, and operators, ternaries and 2-argument builtins over
  such nodes) also gets a closure returning a plain int, with width and
  sign wraps chosen at lowering time from :class:`IntType` masks.
  Consumers that want an integer (those nodes, casts, conditions, indices,
  atomic operands) call it, so a value is boxed into a
  :class:`ScalarValue` once, where it is stored (see :class:`_C`).  The
  static type of an int variable rests on one invariant: every writer
  converts a private int cell's value to the cell's declared type.

Semantics are *not* reimplemented here: operators, comparisons, conversions,
builtins and pointer targets come from :mod:`repro.runtime.ops` and
:mod:`repro.kernel_lang.builtins`, the same functions the reference
interpreter delegates to -- the typed closures inline only wraps and boxing
-- and memory accesses go through the same
:class:`~repro.runtime.memory.LValue` machinery or mirror it exactly (so
access hooks fire for the race detector as they do under the reference
engine).

Step-budget semantics: closures tick the lowering's
:class:`~repro.runtime.interpreter.ExecutionLimits` at the same AST points
as the interpreter, so completed launches report byte-identical step counts
and a launch times out under this engine iff it times out under the
reference engine.  Nodes the interpreter ticks twice in immediate
succession (e.g. an rvalue variable reference) tick once with weight two
here; because the reference walker increments one step at a time, the first
budget crossing it can observe is always exactly ``max_steps + 1``, so every
timeout raise here carries that value -- the
:class:`~repro.runtime.errors.ExecutionTimeout` payload is byte-identical
across engines (regression-tested in ``tests/test_engine.py``).

Lowering is independent of any launch's buffers (the lower/bind split of
:mod:`repro.runtime.engine`): global/constant buffer cells and the step
counter bind per launch in :meth:`CompiledProgram.bind`, local buffers per
group.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.kernel_lang import ast, builtins, types as ty, values as vals
from repro.kernel_lang.semantics import UBKind
from repro.runtime import memory, ops
from repro.runtime.engine import (
    DEFAULT_MAX_STEPS,
    ExecutionEngine,
    PreparedGroup,
    PreparedLaunch,
    PreparedProgram,
)
from repro.runtime.errors import (
    ExecutionTimeout,
    RuntimeCrash,
    UndefinedBehaviourError,
)
from repro.runtime.interpreter import (
    ATOMIC_EVENT,
    BARRIER_EVENT,
    ExecutionLimits,
    SchedulerEvent,
    ThreadContext,
    _MAX_CALL_DEPTH,
)

# ---------------------------------------------------------------------------
# Runtime representation
# ---------------------------------------------------------------------------


class _RT:
    """Mutable per-thread execution state threaded through every closure."""

    __slots__ = ("hook", "wi", "locals", "depth")

    def __init__(self) -> None:
        self.hook: Optional[memory.AccessHook] = None
        self.wi: List[int] = []
        self.locals: Optional[List[Optional[memory.Cell]]] = None
        self.depth = 0


class _C:
    """A compiled node: a closure plus whether it is a generator.

    A plain node whose value is statically an integer of a known type also
    carries ``raw``, a closure returning that value as a Python int already
    in the range of ``itype``.  Consumers that want an integer call ``raw``;
    the boxed closure ``fn``, which returns a :class:`ScalarValue`, is then
    built on first use only, from ``raw`` unless the node supplied a cheaper
    one.  Both closures tick, raise and touch memory identically.
    """

    __slots__ = ("_fn", "yields", "raw", "itype")

    def __init__(
        self,
        fn: Optional[Callable],
        yields: bool,
        raw: Optional[Callable] = None,
        itype: Optional[ty.IntType] = None,
    ) -> None:
        self._fn = fn
        self.yields = yields
        self.raw = raw
        self.itype = itype

    @property
    def fn(self) -> Callable:
        fn = self._fn
        if fn is None:
            raw, itype = self.raw, self.itype

            def run_boxed(rt):
                return _mk_scalar(itype, raw(rt))
            fn = self._fn = run_boxed
        return fn


def _typed(raw: Callable, itype: ty.IntType, fn: Optional[Callable] = None) -> _C:
    """A plain integer node of static type ``itype``."""
    return _C(fn, False, raw, itype)


def _int_fn(c: _C) -> Callable:
    """``rt -> int`` for a plain node whose consumer wants an integer (an
    index or an atomic operand): ``ops.as_int`` of its value, with no box
    when the node is typed."""
    if c.raw is not None:
        return c.raw
    fn = c.fn

    def run_unbox(rt):
        value = fn(rt)
        return value.value if value.__class__ is _SV else ops.as_int(value)
    return run_unbox


def _truth_fn(c: _C) -> Callable:
    """``rt -> truth`` for a plain node used as a condition (``ops.truthy``)."""
    if c.raw is not None:
        return c.raw
    fn = c.fn

    def run_truth(rt):
        value = fn(rt)
        return value.value != 0 if value.__class__ is _SV else ops.truthy(value)
    return run_truth


def _fits(source: ty.IntType, target: ty.IntType) -> bool:
    """True when every ``source`` value is a ``target`` value, so converting
    needs no wrap (``uint -> ulong``, not ``int -> uint``)."""
    return target.min_value <= source.min_value and source.max_value <= target.max_value


def _store_fn(value: _C, target: ty.Type) -> Callable:
    """``rt -> value`` of a plain node converted for a store into the static
    type ``target`` (``ops.convert_for_store``): the one place an integer
    node is boxed, with its wrap chosen here."""
    raw = value.raw
    if raw is not None and isinstance(target, ty.IntType):
        if _fits(value.itype, target):
            def run_store_int(rt):
                return _mk_scalar(target, raw(rt))
            return run_store_int
        half, mask = target.half, target.mask

        def run_store_wrap(rt):
            return _mk_scalar(target, ((raw(rt) + half) & mask) - half)
        return run_store_wrap
    fn = value.fn

    def run_store(rt):
        return ops.convert_for_store(fn(rt), target)
    return run_store


def _box_int(raw: int, target: ty.IntType) -> vals.ScalarValue:
    """``raw`` wrapped into ``target``, a type known only at run time, and
    boxed: the int case of ``ops.convert_for_store`` (and
    ``ScalarValue.wrap``)."""
    half = target.half
    return _mk_scalar(target, ((raw + half) & target.mask) - half)


def _convert_boxed(value: vals.Value, target: ty.Type) -> vals.Value:
    """``ops.convert_for_store`` for a target type known only at run time
    (a buffer element)."""
    if value.__class__ is _SV and target.__class__ is ty.IntType:
        return _box_int(value.value, target)
    return ops.convert_for_store(value, target)


def _dynamic_store(value: _C) -> Tuple[Callable, Callable]:
    """``(evaluate, convert)`` for a plain node stored where the target type
    is known only at run time: ``evaluate(rt)`` returns the raw int of a
    typed node, else its boxed value, and ``convert(result, target)``
    finishes the store's conversion."""
    if value.raw is None:
        return value.fn, _convert_boxed
    itype = value.itype

    def convert_raw(raw: int, target: ty.Type) -> vals.Value:
        if target.__class__ is ty.IntType:
            return _box_int(raw, target)
        return ops.convert_for_store(_mk_scalar(itype, raw), target)
    return value.raw, convert_raw


def _ev(c: "_C", rt: _RT):
    """Evaluate a compiled node from inside a generator closure.

    ``yield from _ev(c, rt)`` delegates to ``c`` whether or not it is a
    generator; the plain-closure case returns immediately.  Only yielding
    code paths pay for the extra generator frame.
    """
    if c.yields:
        return (yield from c.fn(rt))
    return c.fn(rt)


# Control-flow results of statement closures.  Normal completion is ``None``
# (the fastest check); break/continue are singletons; return is a
# ``("ret", value)`` tuple so ``fl.__class__ is tuple`` identifies it.
_BRK = "break"
_CNT = "continue"
_RET_NONE = ("ret", None)

_INT0 = vals.ScalarValue(ty.INT, 0)
_INT1 = vals.ScalarValue(ty.INT, 1)

#: Shared atomic scheduling-point event (the scheduler only reads ``kind``).
_ATOMIC_EVENT = SchedulerEvent(ATOMIC_EVENT)

_SV = vals.ScalarValue
_PV = vals.PointerValue
_SHARED_SPACES = (ty.LOCAL, ty.GLOBAL)


# Shared engine fast-path helpers (they live in ops, next to the value
# semantics every engine calls).
_apply_builtin_fast = ops.apply_scalar_builtin_fast
_mk_scalar = ops.mk_scalar


# ---------------------------------------------------------------------------
# Lexical scopes -> frame slots
# ---------------------------------------------------------------------------


class _FnSlots:
    """Allocates ``locals`` indices for one function (or the kernel)."""

    def __init__(self) -> None:
        self.count = 0

    def new(self) -> int:
        slot = self.count
        self.count += 1
        return slot


class _Scope:
    """Lowering-time lexical scope mapping names to (slot, declared type)."""

    def __init__(self, slots: _FnSlots, parent: Optional["_Scope"] = None) -> None:
        self._slots = slots
        self._parent = parent
        self._names: Dict[str, Tuple[int, ty.Type]] = {}

    def declare(self, name: str, type_: ty.Type) -> int:
        slot = self._slots.new()
        self._names[name] = (slot, type_)
        return slot

    def lookup(self, name: str) -> Optional[Tuple[int, ty.Type]]:
        scope: Optional[_Scope] = self
        while scope is not None:
            entry = scope._names.get(name)
            if entry is not None:
                return entry
            scope = scope._parent
        return None

    def child(self) -> "_Scope":
        return _Scope(self._slots, self)


class _FnRecord:
    """Late-bound compiled function (supports recursion: the call closure
    reads ``body``/``nslots`` at call time, after compilation completed)."""

    __slots__ = ("body", "nslots", "default_return")

    def __init__(self) -> None:
        self.body: Optional[Callable] = None
        self.nslots = 0
        self.default_return: Callable[[], vals.Value] = lambda: _INT0


# ---------------------------------------------------------------------------
# Yield analysis
# ---------------------------------------------------------------------------


def yielding_functions(functions: Dict[str, ast.FunctionDecl]) -> FrozenSet[str]:
    """Names of user functions that can reach a scheduling point.

    A function yields control iff it contains a barrier, an atomic builtin
    call, or a call to a function that (transitively) does -- computed as a
    call-graph fixpoint.  Only these functions pay generator overhead.
    """
    calls: Dict[str, set] = {}
    syncing = set()
    for name, fn in functions.items():
        callees = set()
        for node in fn.body.walk():
            if isinstance(node, ast.BarrierStmt):
                syncing.add(name)
            elif isinstance(node, ast.Call):
                if node.name in builtins.ATOMIC_BUILTINS:
                    syncing.add(name)
                elif node.name in functions:
                    callees.add(node.name)
        calls[name] = callees
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name not in syncing and callees & syncing:
                syncing.add(name)
                changed = True
    return frozenset(syncing)


# ---------------------------------------------------------------------------
# The lowerer
# ---------------------------------------------------------------------------


class _Lowerer:
    def __init__(
        self,
        program: ast.Program,
        comma_yields_zero: bool,
        max_steps: int,
    ) -> None:
        self.program = program
        self.comma_yields_zero = comma_yields_zero
        self._functions: Dict[str, ast.FunctionDecl] = {
            fn.name: fn for fn in program.functions if fn.body is not None
        }
        self._yielding_fns = yielding_functions(self._functions)
        self._fn_records: Dict[str, _FnRecord] = {}
        self._wi_map: Dict[Tuple[str, int], int] = {}
        self._wi_specs: List[Tuple[str, int]] = []

        # The lowering owns its step counter so closures stay
        # launch-independent; CompiledProgram.bind resets it per launch.
        self.limits = limits = ExecutionLimits(max_steps=max_steps)
        self._max_steps = max_steps

        def tick(n: int = 1) -> None:
            s = limits.steps + n
            limits.steps = s
            if s > max_steps:
                # The reference walker increments one step at a time, so the
                # first crossing it can observe is exactly max_steps + 1;
                # multi-step ticks report the same value for byte-identical
                # ExecutionTimeout payloads across engines.
                raise ExecutionTimeout(max_steps + 1)

        self._tick = tick

    # -- entry point ----------------------------------------------------

    def lower(self) -> "CompiledProgram":
        kernel = self.program.kernel()
        slots = _FnSlots()
        scope = _Scope(slots)
        scalar_args: Dict[str, int] = dict(self.program.metadata.get("scalar_args", {}))

        # (slot, name, type, payload, is_raise); payload is the initial value
        # for resolved params, a global/local-buffer marker for pointers into
        # those spaces (resolved at bind/bind_group time, keeping the lowering
        # launch-independent), or an exception factory mirroring the
        # interpreter's per-thread UB raise.
        param_specs: List[Tuple[int, str, ty.Type, object, bool]] = []
        for param in kernel.params:
            slot = scope.declare(param.name, param.type)
            if isinstance(param.type, ty.PointerType):
                space = param.type.address_space
                if space in (ty.GLOBAL, ty.CONSTANT):
                    param_specs.append((slot, param.name, param.type, "global", False))
                elif space == ty.LOCAL:
                    param_specs.append((slot, param.name, param.type, "local", False))
                else:
                    param_specs.append(
                        (
                            slot,
                            param.name,
                            param.type,
                            _raiser(
                                UBKind.NULL_DEREFERENCE,
                                f"kernel pointer parameter {param.name!r} in private space",
                            ),
                            True,
                        )
                    )
            elif isinstance(param.type, ty.IntType):
                raw = scalar_args.get(param.name, 0)
                value = vals.ScalarValue.wrap(param.type, raw)
                param_specs.append((slot, param.name, param.type, value, False))
            else:
                param_specs.append(
                    (
                        slot,
                        param.name,
                        param.type,
                        _raiser(
                            UBKind.INVALID_FIELD,
                            f"unsupported kernel parameter type {param.type}",
                        ),
                        True,
                    )
                )

        body = self._compile_block(kernel.body, scope)
        return CompiledProgram(
            program=self.program,
            body=body,
            nslots=slots.count,
            param_specs=param_specs,
            wi_specs=list(self._wi_specs),
            limits=self.limits,
        )

    # -- work-item values -----------------------------------------------

    def _wi_index(self, function: str, dimension: int) -> int:
        key = (function, dimension)
        if key not in self._wi_map:
            self._wi_map[key] = len(self._wi_specs)
            self._wi_specs.append(key)
        return self._wi_map[key]

    # -- static shape analysis (mirrors the interpreter's env checks) ----

    def _is_pointer_expr(self, expr: ast.Expr, scope: _Scope) -> bool:
        if isinstance(expr, ast.VarRef):
            entry = scope.lookup(expr.name)
            return entry is not None and isinstance(entry[1], ty.PointerType)
        return False

    def _is_lvalue_shaped(self, expr: ast.Expr, scope: _Scope) -> bool:
        if isinstance(expr, (ast.VarRef, ast.Deref)):
            return True
        if isinstance(expr, ast.FieldAccess):
            if expr.arrow:
                return True
            return self._is_lvalue_shaped(expr.base, scope)
        if isinstance(expr, ast.IndexAccess):
            if self._is_pointer_expr(expr.base, scope):
                return True
            return self._is_lvalue_shaped(expr.base, scope)
        if isinstance(expr, ast.VectorComponent):
            return self._is_lvalue_shaped(expr.base, scope)
        return False

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def _compile_block(self, blk: ast.Block, scope: _Scope) -> _C:
        inner = scope.child()
        compiled = [self._compile_stmt(stmt, inner) for stmt in blk.statements]
        if not any(c.yields for c in compiled):
            fns = [c.fn for c in compiled]
            # Unrolled variants for the common short blocks (a block adds no
            # behaviour of its own -- scoping was resolved at lowering time).
            if len(fns) == 0:
                def run_block0(rt):
                    return None
                return _C(run_block0, False)
            if len(fns) == 1:
                return compiled[0]
            if len(fns) == 2:
                s0, s1 = fns

                def run_block2(rt):
                    fl = s0(rt)
                    if fl is not None:
                        return fl
                    return s1(rt)
                return _C(run_block2, False)
            if len(fns) == 3:
                s0, s1, s2 = fns

                def run_block3(rt):
                    fl = s0(rt)
                    if fl is not None:
                        return fl
                    fl = s1(rt)
                    if fl is not None:
                        return fl
                    return s2(rt)
                return _C(run_block3, False)

            def run_block(rt):
                for s in fns:
                    fl = s(rt)
                    if fl is not None:
                        return fl
                return None

            return _C(run_block, False)

        pairs = [(c.fn, c.yields) for c in compiled]

        def run_block_gen(rt):
            for s, y in pairs:
                fl = (yield from s(rt)) if y else s(rt)
                if fl is not None:
                    return fl
            return None

        return _C(run_block_gen, True)

    def _compile_stmt(self, stmt: ast.Stmt, scope: _Scope) -> _C:
        tick = self._tick
        if isinstance(stmt, ast.Block):
            inner = self._compile_block(stmt, scope)
            if not inner.yields:
                def run_nested(rt, _b=inner.fn):
                    tick()
                    return _b(rt)
                return _C(run_nested, False)

            def run_nested_gen(rt, _b=inner.fn):
                tick()
                return (yield from _b(rt))
            return _C(run_nested_gen, True)
        if isinstance(stmt, ast.DeclStmt):
            return self._compile_decl(stmt, scope)
        if isinstance(stmt, ast.AssignStmt):
            # The statement tick is folded into the assignment's entry tick
            # (they are contiguous: nothing observable happens in between),
            # and the assignment's closure already completes with None.
            return self._compile_assign(
                stmt.target, stmt.value, stmt.op, scope, extra_ticks=1
            )
        if isinstance(stmt, ast.ExprStmt):
            value = self._compile_expr(stmt.expr, scope)
            if not value.yields:
                limits = self.limits
                max_steps = self._max_steps

                def run_expr(rt, _v=value.fn):
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    _v(rt)
                    return None
                return _C(run_expr, False)

            def run_expr_gen(rt, _v=value.fn):
                tick()
                yield from _v(rt)
                return None
            return _C(run_expr_gen, True)
        if isinstance(stmt, ast.IfStmt):
            return self._compile_if(stmt, scope)
        if isinstance(stmt, ast.ForStmt):
            return self._compile_for(stmt, scope)
        if isinstance(stmt, ast.WhileStmt):
            return self._compile_while(stmt, scope)
        if isinstance(stmt, ast.ReturnStmt):
            if stmt.value is None:
                def run_return_void(rt):
                    tick()
                    return _RET_NONE
                return _C(run_return_void, False)
            value = self._compile_expr(stmt.value, scope)
            if not value.yields:
                def run_return(rt, _v=value.fn):
                    tick()
                    return ("ret", _v(rt))
                return _C(run_return, False)

            def run_return_gen(rt, _v=value.fn):
                tick()
                return ("ret", (yield from _v(rt)))
            return _C(run_return_gen, True)
        if isinstance(stmt, ast.BreakStmt):
            def run_break(rt):
                tick()
                return _BRK
            return _C(run_break, False)
        if isinstance(stmt, ast.ContinueStmt):
            def run_continue(rt):
                tick()
                return _CNT
            return _C(run_continue, False)
        if isinstance(stmt, ast.BarrierStmt):
            event = SchedulerEvent(BARRIER_EVENT, barrier_site=id(stmt), fence=stmt.fence)

            def run_barrier(rt):
                tick()
                yield event
                return None
            return _C(run_barrier, True)
        return self._raise_c(
            1, UBKind.INVALID_FIELD, f"unknown statement {type(stmt).__name__}"
        )

    def _compile_decl(self, stmt: ast.DeclStmt, scope: _Scope) -> _C:
        tick = self._tick
        limits = self.limits
        max_steps = self._max_steps
        name, type_, volatile = stmt.name, stmt.type, stmt.volatile
        if stmt.init is None:
            slot = scope.declare(name, type_)

            def run_decl_uninit(rt):
                tick()
                rt.locals[slot] = memory.Cell.uninitialised(name, type_, volatile=volatile)
                return None
            return _C(run_decl_uninit, False)

        # The initialiser is compiled *before* the name is declared: like the
        # interpreter (which evaluates the initialiser before env.declare), a
        # reference to the name inside its own initialiser sees the outer
        # binding, not the cell being initialised.
        init = self._compile_init_value(stmt.init, type_, scope)
        slot = scope.declare(name, type_)
        if not init.yields:
            def run_decl(rt, _i=init.fn):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                rt.locals[slot] = memory.Cell(name, type_, _i(rt), volatile=volatile)
                return None
            return _C(run_decl, False)

        def run_decl_gen(rt, _i=init.fn):
            tick()
            value = yield from _i(rt)
            rt.locals[slot] = memory.Cell(name, type_, value, volatile=volatile)
            return None
        return _C(run_decl_gen, True)

    def _compile_if(self, stmt: ast.IfStmt, scope: _Scope) -> _C:
        tick = self._tick
        limits = self.limits
        max_steps = self._max_steps
        cond = self._compile_expr(stmt.cond, scope)
        then = self._compile_block(stmt.then_block, scope)
        other = self._compile_block(stmt.else_block, scope) if stmt.else_block else None
        parts = [cond, then] + ([other] if other else [])
        if not any(c.yields for c in parts):
            truth, tfn = _truth_fn(cond), then.fn
            if other is None:
                def run_if(rt):
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    if truth(rt):
                        return tfn(rt)
                    return None
                return _C(run_if, False)
            ofn = other.fn

            def run_if_else(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                if truth(rt):
                    return tfn(rt)
                return ofn(rt)
            return _C(run_if_else, False)
        truth = None if cond.yields else _truth_fn(cond)

        def run_if_gen(rt):
            tick()
            if truth(rt) if truth is not None else ops.truthy((yield from cond.fn(rt))):
                return (yield from _ev(then, rt))
            if other is not None:
                return (yield from _ev(other, rt))
            return None
        return _C(run_if_gen, True)

    def _compile_for(self, stmt: ast.ForStmt, scope: _Scope) -> _C:
        tick = self._tick
        inner = scope.child()
        init = self._compile_stmt(stmt.init, inner) if stmt.init is not None else None
        cond = self._compile_expr(stmt.cond, inner) if stmt.cond is not None else None
        body = self._compile_block(stmt.body, inner)
        update = self._compile_stmt(stmt.update, inner) if stmt.update is not None else None
        parts = [c for c in (init, cond, body, update) if c is not None]
        truth = _truth_fn(cond) if cond is not None and not cond.yields else None
        if not any(c.yields for c in parts):
            ifn = init.fn if init is not None else None
            bfn = body.fn
            ufn = update.fn if update is not None else None
            limits = self.limits
            max_steps = self._max_steps

            def run_for(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                if ifn is not None:
                    fl = ifn(rt)
                    if fl is not None and fl.__class__ is tuple:
                        return fl
                while True:
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    if truth is not None and not truth(rt):
                        break
                    fl = bfn(rt)
                    if fl is not None:
                        if fl is _BRK:
                            break
                        if fl.__class__ is tuple:
                            return fl
                    if ufn is not None:
                        fl = ufn(rt)
                        if fl is not None and fl.__class__ is tuple:
                            return fl
                return None
            return _C(run_for, False)

        def run_for_gen(rt):
            tick()
            if init is not None:
                fl = yield from _ev(init, rt)
                if fl is not None and fl.__class__ is tuple:
                    return fl
            while True:
                tick()
                if truth is not None:
                    if not truth(rt):
                        break
                elif cond is not None and not ops.truthy((yield from cond.fn(rt))):
                    break
                fl = yield from _ev(body, rt)
                if fl is not None:
                    if fl is _BRK:
                        break
                    if fl.__class__ is tuple:
                        return fl
                if update is not None:
                    fl = yield from _ev(update, rt)
                    if fl is not None and fl.__class__ is tuple:
                        return fl
            return None
        return _C(run_for_gen, True)

    def _compile_while(self, stmt: ast.WhileStmt, scope: _Scope) -> _C:
        tick = self._tick
        cond = self._compile_expr(stmt.cond, scope)
        body = self._compile_block(stmt.body, scope)
        truth = None if cond.yields else _truth_fn(cond)
        if truth is not None and not body.yields:
            bfn = body.fn
            limits = self.limits
            max_steps = self._max_steps

            def run_while(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                while True:
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    if not truth(rt):
                        break
                    fl = bfn(rt)
                    if fl is not None:
                        if fl is _BRK:
                            break
                        if fl.__class__ is tuple:
                            return fl
                return None
            return _C(run_while, False)

        def run_while_gen(rt):
            tick()
            while True:
                tick()
                if not (truth(rt) if truth is not None
                        else ops.truthy((yield from cond.fn(rt)))):
                    break
                fl = yield from _ev(body, rt)
                if fl is not None:
                    if fl is _BRK:
                        break
                    if fl.__class__ is tuple:
                        return fl
            return None
        return _C(run_while_gen, True)

    # ------------------------------------------------------------------
    # Assignments
    # ------------------------------------------------------------------

    def _compile_assign(
        self,
        target: ast.Expr,
        value: ast.Expr,
        op: str,
        scope: _Scope,
        extra_ticks: int = 0,
    ) -> _C:
        """The write of ``target op= value``; its closure returns None, so it
        serves as an ``AssignStmt``'s statement closure as it is.

        ``extra_ticks`` folds the caller's preceding tick (the statement tick
        of an ``AssignStmt``, or the expression tick of an ``AssignExpr``)
        into this closure's entry tick -- the two are contiguous, with no
        observable effect in between.
        """
        tick = self._tick
        limits = self.limits
        max_steps = self._max_steps
        value_c = self._compile_expr(value, scope)
        base_op = op[:-1] if op != "=" else None

        # Fast path: ``ptr[idx] = value`` (the CLsmith result-reporting idiom
        # and most generated stores).  No LValue allocation; hook, bounds
        # checks and conversion mirror LValue.write/_store exactly.
        if (
            base_op is None
            and not value_c.yields
            and isinstance(target, ast.IndexAccess)
            and isinstance(target.base, ast.VarRef)
        ):
            entry = scope.lookup(target.base.name)
            if entry is not None and isinstance(entry[1], ty.PointerType):
                index_c = self._compile_expr(target.index, scope)
                if not index_c.yields:
                    pslot = entry[0]
                    ifn = _int_fn(index_c)
                    vfn, convert = _dynamic_store(value_c)
                    entry_ticks = 1 + extra_ticks  # the _eval_lvalue tick
                    type_at_path = memory.type_at_path
                    store = memory._store

                    def run_buf_store(rt):
                        s = limits.steps + entry_ticks
                        limits.steps = s
                        if s > max_steps:
                            raise ExecutionTimeout(max_steps + 1)
                        i = ifn(rt)
                        s = limits.steps + 2  # pointer VarRef eval + lvalue ticks
                        limits.steps = s
                        if s > max_steps:
                            raise ExecutionTimeout(max_steps + 1)
                        ptr = rt.locals[pslot].value
                        if ptr.__class__ is _PV:
                            cell = ptr.cell
                            if cell is None:
                                raise UndefinedBehaviourError(UBKind.NULL_DEREFERENCE)
                            path = ptr.path + (i,)
                        else:
                            lv = ops.pointer_target(ptr)  # raises: non-pointer
                            cell = lv.cell
                            path = lv.path + (i,)
                        rhs = vfn(rt)
                        new = convert(rhs, type_at_path(cell.type, path))
                        hook = rt.hook
                        if hook is not None and cell.address_space in _SHARED_SPACES:
                            hook(cell, path, True, False)
                        container = cell.value
                        if container.__class__ is vals.ArrayValue and len(path) == 1:
                            # Inline of _store for the single-index case.
                            if not 0 <= i < container.type.length:
                                raise UndefinedBehaviourError(
                                    UBKind.OUT_OF_BOUNDS, f"index {i!r} out of bounds"
                                )
                            container.elements[i] = new
                        else:
                            cell.value = store(container, path, new)
                        cell.initialised = True
                    return _C(run_buf_store, False)

        # Fast path: ``var.field = value`` on a local struct.
        if (
            base_op is None
            and not value_c.yields
            and isinstance(target, ast.FieldAccess)
            and not target.arrow
            and isinstance(target.base, ast.VarRef)
        ):
            entry = scope.lookup(target.base.name)
            if (
                entry is not None
                and isinstance(entry[1], ty.StructType)
                and entry[1].has_field(target.field)
            ):
                slot = entry[0]
                fname = target.field
                new_value = _store_fn(value_c, entry[1].field(fname).type)
                # stmt/expr tick + FieldAccess lvalue tick + VarRef lvalue tick
                entry_ticks = 2 + extra_ticks
                store = memory._store
                path = (fname,)

                def run_field_assign(rt):
                    s = limits.steps + entry_ticks
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    cell = rt.locals[slot]
                    new = new_value(rt)
                    container = cell.value
                    if container.__class__ is vals.StructValue and fname in container.fields:
                        container.fields[fname] = new
                    else:
                        cell.value = store(container, path, new)
                    cell.initialised = True
                return _C(run_field_assign, False)

        # Fast path: ``var.x = value`` on a local vector.
        if (
            base_op is None
            and not value_c.yields
            and isinstance(target, ast.VectorComponent)
            and isinstance(target.base, ast.VarRef)
        ):
            entry = scope.lookup(target.base.name)
            if (
                entry is not None
                and isinstance(entry[1], ty.VectorType)
                and 0 <= target.component < entry[1].length
            ):
                slot = entry[0]
                comp = target.component
                new_value = _store_fn(value_c, entry[1].element)
                # stmt/expr tick + component lvalue tick + VarRef lvalue tick
                entry_ticks = 2 + extra_ticks
                store = memory._store
                path = (comp,)

                def run_component_assign(rt):
                    s = limits.steps + entry_ticks
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    cell = rt.locals[slot]
                    new = new_value(rt)  # a scalar of the element type
                    container = cell.value
                    if container.__class__ is vals.VectorValue:
                        container.elements[comp] = new.value
                    else:
                        cell.value = store(container, path, new)
                    cell.initialised = True
                return _C(run_component_assign, False)

        # Fast path: plain variable target (always a private cell; no hook).
        if isinstance(target, ast.VarRef) and not value_c.yields:
            entry = scope.lookup(target.name)
            if entry is not None:
                slot, decl_type = entry
                entry_ticks = 1 + extra_ticks  # the _eval_lvalue(VarRef) tick
                if base_op is None:
                    new_value = _store_fn(value_c, decl_type)

                    def run_var_assign(rt):
                        s = limits.steps + entry_ticks
                        limits.steps = s
                        if s > max_steps:
                            raise ExecutionTimeout(max_steps + 1)
                        cell = rt.locals[slot]
                        cell.value = new_value(rt)
                        cell.initialised = True
                    return _C(run_var_assign, False)
                value_fn = value_c.fn

                def run_var_compound(rt):
                    s = limits.steps + entry_ticks
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    cell = rt.locals[slot]
                    rhs = value_fn(rt)  # before the read: it may write the variable
                    rhs = ops.binary(base_op, cell.value, rhs)
                    cell.value = ops.convert_for_store(rhs, decl_type)
                    cell.initialised = True
                return _C(run_var_compound, False)

        lv_c, static_type = self._compile_lvalue(target, scope)
        if not lv_c.yields and not value_c.yields:
            lfn = lv_c.fn
            if base_op is None and static_type is not None:
                new_value = _store_fn(value_c, static_type)

                def run_assign(rt):
                    if extra_ticks:
                        tick(extra_ticks)
                    lv = lfn(rt)
                    lv.write(new_value(rt), rt.hook)
                return _C(run_assign, False)
            if base_op is None:
                vfn, convert = _dynamic_store(value_c)

                def run_assign_dynamic(rt):
                    if extra_ticks:
                        tick(extra_ticks)
                    lv = lfn(rt)
                    rhs = vfn(rt)
                    lv.write(convert(rhs, lv.type), rt.hook)
                return _C(run_assign_dynamic, False)
            value_fn = value_c.fn

            def run_compound(rt):
                if extra_ticks:
                    tick(extra_ticks)
                lv = lfn(rt)
                rhs = value_fn(rt)
                rhs = ops.binary(base_op, lv.read(rt.hook), rhs)
                lv.write(
                    ops.convert_for_store(
                        rhs, static_type if static_type is not None else lv.type
                    ),
                    rt.hook,
                )
            return _C(run_compound, False)

        def run_assign_gen(rt):
            if extra_ticks:
                tick(extra_ticks)
            lv = yield from _ev(lv_c, rt)
            rhs = yield from _ev(value_c, rt)
            if base_op is not None:
                rhs = ops.binary(base_op, lv.read(rt.hook), rhs)
            lv.write(
                ops.convert_for_store(
                    rhs, static_type if static_type is not None else lv.type
                ),
                rt.hook,
            )
        return _C(run_assign_gen, True)

    # ------------------------------------------------------------------
    # Initialisers
    # ------------------------------------------------------------------

    def _compile_init_value(self, init: ast.Expr, target_type: ty.Type, scope: _Scope) -> _C:
        """Mirror of ``Interpreter._eval_initialiser`` (no tick of its own)."""
        if isinstance(init, ast.InitList):
            return self._compile_initlist(init, target_type, scope)
        return self._compile_converted(self._compile_expr(init, scope), target_type)

    def _compile_converted(self, value_c: _C, target_type: ty.Type) -> _C:
        """``value_c``'s value converted for a store into ``target_type``."""
        if not value_c.yields:
            return _C(_store_fn(value_c, target_type), False)

        def run_converted_gen(rt):
            return ops.convert_for_store((yield from value_c.fn(rt)), target_type)
        return _C(run_converted_gen, True)

    def _compile_initlist(self, init: ast.InitList, target_type: ty.Type, scope: _Scope) -> _C:
        if isinstance(target_type, ty.StructType):
            pairs = [
                (fdecl.name, self._compile_init_value(elem, fdecl.type, scope))
                for fdecl, elem in zip(target_type.fields, init.elements)
            ]
            if not any(c.yields for _, c in pairs):
                plain = [(n, c.fn) for n, c in pairs]

                def run_struct(rt):
                    result = vals.StructValue.zero(target_type)
                    for fname, efn in plain:
                        result.set(fname, efn(rt))
                    return result
                return _C(run_struct, False)

            def run_struct_gen(rt):
                result = vals.StructValue.zero(target_type)
                for fname, ec in pairs:
                    result.set(fname, (yield from _ev(ec, rt)))
                return result
            return _C(run_struct_gen, True)
        if isinstance(target_type, ty.UnionType):
            # C semantics: a braced initialiser for a union initialises its
            # *first* member (Figure 2(a) depends on this).
            if not init.elements:
                def run_union_empty(rt):
                    return vals.UnionValue.zero(target_type)
                return _C(run_union_empty, False)
            first = target_type.fields[0]
            elem = self._compile_init_value(init.elements[0], first.type, scope)
            fname = first.name
            if not elem.yields:
                efn = elem.fn

                def run_union(rt):
                    result = vals.UnionValue.zero(target_type)
                    result.set(fname, efn(rt))
                    return result
                return _C(run_union, False)

            def run_union_gen(rt):
                result = vals.UnionValue.zero(target_type)
                result.set(fname, (yield from elem.fn(rt)))
                return result
            return _C(run_union_gen, True)
        if isinstance(target_type, ty.ArrayType):
            length = target_type.length
            compiled = [
                self._compile_init_value(elem, target_type.element, scope)
                for elem in init.elements[:length]
            ]
            overflow = len(init.elements) > length
            if not any(c.yields for c in compiled):
                fns = [c.fn for c in compiled]

                def run_array(rt):
                    result = vals.ArrayValue.zero(target_type)
                    for i, efn in enumerate(fns):
                        result.set(i, efn(rt))
                    if overflow:
                        raise UndefinedBehaviourError(
                            UBKind.OUT_OF_BOUNDS, "excess elements in array initialiser"
                        )
                    return result
                return _C(run_array, False)

            def run_array_gen(rt):
                result = vals.ArrayValue.zero(target_type)
                for i, ec in enumerate(compiled):
                    result.set(i, (yield from _ev(ec, rt)))
                if overflow:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS, "excess elements in array initialiser"
                    )
                return result
            return _C(run_array_gen, True)
        if isinstance(target_type, (ty.IntType, ty.VectorType)):
            if len(init.elements) != 1:
                return self._raise_c(
                    0, UBKind.INVALID_FIELD, "scalar initialised with a list"
                )
            return self._compile_converted(
                self._compile_expr(init.elements[0], scope), target_type
            )
        return self._raise_c(
            0, UBKind.INVALID_FIELD, f"cannot initialise {target_type} from a list"
        )

    # ------------------------------------------------------------------
    # L-values
    # ------------------------------------------------------------------

    def _compile_lvalue(self, expr: ast.Expr, scope: _Scope) -> Tuple[_C, Optional[ty.Type]]:
        """Compiled lvalue (own tick included) plus its static type if known."""
        tick = self._tick
        limits = self.limits
        max_steps = self._max_steps
        if isinstance(expr, ast.VarRef):
            entry = scope.lookup(expr.name)
            if entry is None:
                name = expr.name

                def run_unknown(rt):
                    tick()
                    raise UndefinedBehaviourError(
                        UBKind.UNINITIALISED_READ, f"unknown variable {name!r}"
                    )
                return _C(run_unknown, False), None
            slot, decl_type = entry

            def run_var_lv(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return memory.LValue(rt.locals[slot])
            return _C(run_var_lv, False), decl_type
        if isinstance(expr, ast.Deref):
            operand = self._compile_expr(expr.operand, scope)
            if not operand.yields:
                ofn = operand.fn

                def run_deref_lv(rt):
                    tick()
                    return ops.deref_target(ofn(rt))
                return _C(run_deref_lv, False), None

            def run_deref_lv_gen(rt):
                tick()
                return ops.deref_target((yield from operand.fn(rt)))
            return _C(run_deref_lv_gen, True), None
        if isinstance(expr, ast.FieldAccess):
            fname = expr.field
            if expr.arrow:
                return self._arrow_lvalue(self._compile_expr(expr.base, scope), fname), None
            base_c, base_type = self._compile_lvalue(expr.base, scope)
            static = None
            if isinstance(base_type, (ty.StructType, ty.UnionType)) and base_type.has_field(fname):
                static = base_type.field(fname).type
            if not base_c.yields:
                bfn = base_c.fn

                def run_member_lv(rt):
                    tick()
                    return bfn(rt).member(fname)
                return _C(run_member_lv, False), static

            def run_member_lv_gen(rt):
                tick()
                return (yield from base_c.fn(rt)).member(fname)
            return _C(run_member_lv_gen, True), static
        if isinstance(expr, ast.IndexAccess):
            index = self._compile_expr(expr.index, scope)
            if self._is_pointer_expr(expr.base, scope):
                base = self._compile_expr(expr.base, scope)
                if not index.yields and not base.yields:
                    ifn, bfn = _int_fn(index), base.fn

                    def run_ptr_index_lv(rt):
                        s = limits.steps + 1
                        limits.steps = s
                        if s > max_steps:
                            raise ExecutionTimeout(max_steps + 1)
                        i = ifn(rt)
                        ptr = bfn(rt)
                        if ptr.__class__ is _PV and ptr.cell is not None:
                            return memory.LValue(ptr.cell, ptr.path + (i,))
                        return ops.pointer_target(ptr).index(i)
                    return _C(run_ptr_index_lv, False), None

                def run_ptr_index_lv_gen(rt):
                    tick()
                    idx = ops.as_int((yield from _ev(index, rt)))
                    return ops.pointer_target((yield from _ev(base, rt))).index(idx)
                return _C(run_ptr_index_lv_gen, True), None
            base_c, base_type = self._compile_lvalue(expr.base, scope)
            static = base_type.element if isinstance(base_type, ty.ArrayType) else None
            if not index.yields and not base_c.yields:
                ifn, bfn = _int_fn(index), base_c.fn

                def run_index_lv(rt):
                    tick()
                    idx = ifn(rt)
                    return bfn(rt).index(idx)
                return _C(run_index_lv, False), static

            def run_index_lv_gen(rt):
                tick()
                idx = ops.as_int((yield from _ev(index, rt)))
                return (yield from base_c.fn(rt)).index(idx)
            return _C(run_index_lv_gen, True), static
        if isinstance(expr, ast.VectorComponent):
            comp = expr.component
            base_c, base_type = self._compile_lvalue(expr.base, scope)
            static = base_type.element if isinstance(base_type, ty.VectorType) else None
            if not base_c.yields:
                bfn = base_c.fn

                def run_comp_lv(rt):
                    tick()
                    return bfn(rt).index(comp)
                return _C(run_comp_lv, False), static

            def run_comp_lv_gen(rt):
                tick()
                return (yield from base_c.fn(rt)).index(comp)
            return _C(run_comp_lv_gen, True), static
        return (
            self._raise_c(
                1,
                UBKind.INVALID_FIELD,
                f"expression is not an lvalue: {type(expr).__name__}",
            ),
            None,
        )

    def _arrow_lvalue(self, base: _C, fname: str) -> _C:
        """The lvalue ``base->fname`` of a compiled pointer (own tick
        included)."""
        tick = self._tick
        if not base.yields:
            bfn = base.fn

            def run_arrow_lv(rt):
                tick()
                return ops.pointer_target(bfn(rt)).member(fname)
            return _C(run_arrow_lv, False)

        def run_arrow_lv_gen(rt):
            tick()
            return ops.pointer_target((yield from base.fn(rt))).member(fname)
        return _C(run_arrow_lv_gen, True)

    def _read_lvalue(self, lv_c: _C) -> _C:
        """The rvalue read of a compiled lvalue: the ``_eval`` tick, the
        lvalue (which ticks itself), the read and the decay."""
        limits = self.limits
        max_steps = self._max_steps
        if not lv_c.yields:
            lfn = lv_c.fn

            def run_access(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return ops.decay(lfn(rt).read(rt.hook))
            return _C(run_access, False)
        tick = self._tick

        def run_access_gen(rt):
            tick()
            lv = yield from lv_c.fn(rt)
            return ops.decay(lv.read(rt.hook))
        return _C(run_access_gen, True)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def _compile_expr(self, expr: ast.Expr, scope: _Scope) -> _C:
        tick = self._tick
        limits = self.limits
        max_steps = self._max_steps
        if isinstance(expr, ast.IntLiteral):
            itype = expr.type
            raw_value = itype.wrap(expr.value)
            value = _mk_scalar(itype, raw_value)

            def run_literal(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return value

            def run_literal_raw(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return raw_value
            return _typed(run_literal_raw, itype, run_literal)
        if isinstance(expr, ast.VarRef):
            entry = scope.lookup(expr.name)
            if entry is None:
                return self._raise_c(
                    2, UBKind.UNINITIALISED_READ, f"unknown variable {expr.name!r}"
                )
            slot, decl_type = entry
            aggregate = isinstance(decl_type, (ty.StructType, ty.UnionType, ty.ArrayType))
            if aggregate:
                def run_var_agg(rt):
                    tick(2)  # the _eval tick plus the _eval_lvalue tick
                    return rt.locals[slot].value.copy()
                return _C(run_var_agg, False)

            def run_var(rt):
                s = limits.steps + 2  # the _eval tick plus the _eval_lvalue tick
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return rt.locals[slot].value
            if not isinstance(decl_type, ty.IntType):
                return _C(run_var, False)

            # Every writer of an int variable converts to its declared type,
            # so the cell holds a scalar of exactly that type.
            def run_var_raw(rt):
                s = limits.steps + 2
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return rt.locals[slot].value.value
            return _typed(run_var_raw, decl_type, run_var)
        if isinstance(expr, ast.WorkItemExpr):
            if expr.function not in ast.WORKITEM_FUNCTIONS:  # pragma: no cover
                return self._raise_c(
                    1, UBKind.INVALID_FIELD, f"unknown work-item fn {expr.function}"
                )
            index = self._wi_index(expr.function, expr.dimension)

            def run_workitem_raw(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return rt.wi[index]
            return _typed(run_workitem_raw, ty.SIZE_T)
        if isinstance(expr, ast.VectorLiteral):
            return self._compile_vector_literal(expr, scope)
        if isinstance(expr, ast.UnaryOp):
            op = expr.op
            operand = self._compile_expr(expr.operand, scope)
            if operand.raw is not None:
                oraw = operand.raw
                # ops.unary: ``!`` yields int; the rest promote below int.
                itype = ty.INT if op == "!" or operand.itype.bits < 32 else operand.itype
                unary_scalar = ops.unary_scalar

                def run_unary_raw(rt):
                    tick()
                    return unary_scalar(op, oraw(rt), itype)
                return _typed(run_unary_raw, itype)
            if not operand.yields:
                ofn = operand.fn

                def run_unary(rt):
                    tick()
                    return ops.unary(op, ofn(rt))
                return _C(run_unary, False)

            def run_unary_gen(rt):
                tick()
                return ops.unary(op, (yield from operand.fn(rt)))
            return _C(run_unary_gen, True)
        if isinstance(expr, ast.AddressOf):
            lv_c, _ = self._compile_lvalue(expr.operand, scope)
            if not lv_c.yields:
                lfn = lv_c.fn

                def run_addressof(rt):
                    tick()
                    return lfn(rt).as_pointer()
                return _C(run_addressof, False)

            def run_addressof_gen(rt):
                tick()
                return (yield from lv_c.fn(rt)).as_pointer()
            return _C(run_addressof_gen, True)
        if isinstance(expr, ast.Deref):
            operand = self._compile_expr(expr.operand, scope)
            if not operand.yields:
                ofn = operand.fn

                def run_deref(rt):
                    tick(2)  # _eval tick + _eval_lvalue tick
                    lv = ops.deref_target(ofn(rt))
                    return ops.decay(lv.read(rt.hook))
                return _C(run_deref, False)

            def run_deref_gen(rt):
                tick(2)
                lv = ops.deref_target((yield from operand.fn(rt)))
                return ops.decay(lv.read(rt.hook))
            return _C(run_deref_gen, True)
        if isinstance(expr, ast.BinaryOp):
            return self._compile_binary(expr, scope)
        if isinstance(expr, ast.Conditional):
            cond = self._compile_expr(expr.cond, scope)
            then = self._compile_expr(expr.then, scope)
            other = self._compile_expr(expr.otherwise, scope)
            if not (cond.yields or then.yields or other.yields):
                truth = _truth_fn(cond)
                # The value is the taken branch's, unconverted: typed only
                # when both branches have the same static type.
                if then.raw is not None and other.raw is not None and then.itype == other.itype:
                    traw, oraw = then.raw, other.raw

                    def run_conditional_raw(rt):
                        s = limits.steps + 1
                        limits.steps = s
                        if s > max_steps:
                            raise ExecutionTimeout(max_steps + 1)
                        return traw(rt) if truth(rt) else oraw(rt)
                    return _typed(run_conditional_raw, then.itype)
                tfn, ofn = then.fn, other.fn

                def run_conditional(rt):
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    return tfn(rt) if truth(rt) else ofn(rt)
                return _C(run_conditional, False)

            def run_conditional_gen(rt):
                tick()
                if ops.truthy((yield from _ev(cond, rt))):
                    return (yield from _ev(then, rt))
                return (yield from _ev(other, rt))
            return _C(run_conditional_gen, True)
        if isinstance(expr, ast.Cast):
            target = expr.type
            operand = self._compile_expr(expr.operand, scope)
            if not operand.yields and isinstance(target, ty.IntType):
                half, mask = target.half, target.mask
                oraw = operand.raw
                if oraw is not None and _fits(operand.itype, target):
                    def run_cast_raw(rt):
                        s = limits.steps + 1
                        limits.steps = s
                        if s > max_steps:
                            raise ExecutionTimeout(max_steps + 1)
                        return oraw(rt)
                    return _typed(run_cast_raw, target)
                if oraw is not None:
                    def run_cast_wrap(rt):
                        s = limits.steps + 1
                        limits.steps = s
                        if s > max_steps:
                            raise ExecutionTimeout(max_steps + 1)
                        return ((oraw(rt) + half) & mask) - half
                    return _typed(run_cast_wrap, target)
                # A boxed operand (a buffer or struct load, say) is unboxed here.
                ofn = operand.fn

                def run_cast_unbox(rt):
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    value = ofn(rt)
                    if value.__class__ is _SV:
                        return ((value.value + half) & mask) - half
                    return ops.cast_value(value, target).value  # raises: non-scalar
                return _typed(run_cast_unbox, target)
            if not operand.yields:
                ofn = operand.fn

                def run_cast(rt):
                    tick()
                    return ops.cast_value(ofn(rt), target)
                return _C(run_cast, False)

            def run_cast_gen(rt):
                tick()
                return ops.cast_value((yield from operand.fn(rt)), target)
            return _C(run_cast_gen, True)
        if isinstance(expr, (ast.FieldAccess, ast.IndexAccess, ast.VectorComponent)):
            buf_load = self._compile_buffer_load(expr, scope)
            if buf_load is not None:
                return buf_load
            struct_load = self._compile_struct_load(expr, scope)
            if struct_load is not None:
                return struct_load
            vector_load = self._compile_vector_load(expr, scope)
            if vector_load is not None:
                return vector_load
            arrow_load = self._compile_arrow_load(expr, scope)
            if arrow_load is not None:
                return arrow_load
            if self._is_lvalue_shaped(expr, scope):
                return self._read_lvalue(self._compile_lvalue(expr, scope)[0])
            return self._compile_rvalue_access(expr, scope)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr, scope)
        if isinstance(expr, ast.AssignExpr):
            # The _eval tick is folded into the assignment's entry tick.
            assign = self._compile_assign(
                expr.target, expr.value, expr.op, scope, extra_ticks=1
            )
            lv_c, _ = self._compile_lvalue(expr.target, scope)
            if not assign.yields and not lv_c.yields:
                afn, lfn = assign.fn, lv_c.fn

                def run_assign_expr(rt):
                    afn(rt)
                    return ops.decay(lfn(rt).read(rt.hook))
                return _C(run_assign_expr, False)

            def run_assign_expr_gen(rt):
                yield from _ev(assign, rt)
                lv = yield from _ev(lv_c, rt)
                return ops.decay(lv.read(rt.hook))
            return _C(run_assign_expr_gen, True)
        if isinstance(expr, ast.InitList):
            return self._raise_c(
                1, UBKind.INVALID_FIELD, "initialiser list outside a declaration"
            )
        return self._raise_c(
            1, UBKind.INVALID_FIELD, f"unknown expression {type(expr).__name__}"
        )

    def _compile_buffer_load(self, expr: ast.Expr, scope: _Scope) -> Optional[_C]:
        """Specialised closure for ``ptr[idx]`` reads (the hottest access
        shape in generated kernels): no LValue allocation, inlined hook
        check, inlined ticks.  Mirrors the generic path exactly: tick for
        the rvalue eval + lvalue entry, index evaluation, ticks for the
        pointer variable read, pointer-target checks, hook, navigate, decay.
        """
        if not isinstance(expr, ast.IndexAccess) or not isinstance(expr.base, ast.VarRef):
            return None
        entry = scope.lookup(expr.base.name)
        if entry is None or not isinstance(entry[1], ty.PointerType):
            return None
        index_c = self._compile_expr(expr.index, scope)
        if index_c.yields:
            return None
        pslot = entry[0]
        ifn = _int_fn(index_c)
        limits = self.limits
        max_steps = self._max_steps
        navigate = memory._navigate

        def run_buf_load(rt):
            s = limits.steps + 2  # rvalue-access eval tick + lvalue tick
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            i = ifn(rt)
            s = limits.steps + 2  # the pointer VarRef eval + lvalue ticks
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            ptr = rt.locals[pslot].value
            if ptr.__class__ is _PV:
                cell = ptr.cell
                if cell is None:
                    raise UndefinedBehaviourError(UBKind.NULL_DEREFERENCE)
                path = ptr.path + (i,)
            else:
                lv = ops.pointer_target(ptr)  # raises: non-pointer value
                cell = lv.cell
                path = lv.path + (i,)
            hook = rt.hook
            if hook is not None and cell.address_space in _SHARED_SPACES:
                hook(cell, path, False, False)
            container = cell.value
            if container.__class__ is vals.ArrayValue and len(path) == 1:
                # Inline of _navigate for the single-index case.
                if not 0 <= i < container.type.length:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS,
                        f"index {i} out of bounds for length {container.type.length}",
                    )
                value = container.elements[i]
            else:
                value = navigate(container, path)
            if value.__class__ is _SV:
                return value
            return ops.decay(value)
        return _C(run_buf_load, False)

    def _compile_struct_load(self, expr: ast.Expr, scope: _Scope) -> Optional[_C]:
        """Specialised closure for ``var.field`` reads on a local struct:
        slot access plus a dict lookup instead of LValue + _navigate."""
        if (
            not isinstance(expr, ast.FieldAccess)
            or expr.arrow
            or not isinstance(expr.base, ast.VarRef)
        ):
            return None
        entry = scope.lookup(expr.base.name)
        if entry is None or not isinstance(entry[1], ty.StructType):
            return None
        slot = entry[0]
        fname = expr.field
        navigate = memory._navigate
        limits = self.limits
        max_steps = self._max_steps
        path = (fname,)

        def run_struct_load(rt):
            # _eval tick + FieldAccess lvalue tick + VarRef lvalue tick.
            s = limits.steps + 3
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            container = rt.locals[slot].value
            if container.__class__ is vals.StructValue and fname in container.fields:
                value = container.fields[fname]
            else:
                value = navigate(container, path)
            if value.__class__ is _SV:
                return value
            return ops.decay(value)
        return _C(run_struct_load, False)

    def _compile_arrow_load(self, expr: ast.Expr, scope: _Scope) -> Optional[_C]:
        """Specialised closure for ``p->f`` reads: the generic path's ticks,
        pointer-target checks, hook and navigation, without building the
        LValue.  The field's value stays boxed (its type is the cell's).  A
        yielding base takes the generic read of the same compiled base."""
        if not isinstance(expr, ast.FieldAccess) or not expr.arrow:
            return None
        base = self._compile_expr(expr.base, scope)
        fname = expr.field
        if base.yields:
            return self._read_lvalue(self._arrow_lvalue(base, fname))
        bfn = base.fn
        limits = self.limits
        max_steps = self._max_steps
        navigate = memory._navigate

        def run_arrow_load(rt):
            s = limits.steps + 2  # rvalue-access eval tick + FieldAccess lvalue tick
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            ptr = bfn(rt)
            if ptr.__class__ is _PV and ptr.cell is not None:
                cell = ptr.cell
                path = ptr.path + (fname,)
            else:
                lv = ops.pointer_target(ptr).member(fname)  # raises: null, non-pointer
                cell = lv.cell
                path = lv.path
            hook = rt.hook
            if hook is not None and cell.address_space in _SHARED_SPACES:
                hook(cell, path, False, False)
            container = cell.value
            if (
                len(path) == 1
                and container.__class__ is vals.StructValue
                and fname in container.fields
            ):
                value = container.fields[fname]
            else:
                value = navigate(container, path)
            if value.__class__ is _SV:
                return value
            return ops.decay(value)
        return _C(run_arrow_load, False)

    def _compile_vector_load(self, expr: ast.Expr, scope: _Scope) -> Optional[_C]:
        """Specialised closure for ``var.x`` reads on a local vector."""
        if not isinstance(expr, ast.VectorComponent) or not isinstance(expr.base, ast.VarRef):
            return None
        entry = scope.lookup(expr.base.name)
        if entry is None or not isinstance(entry[1], ty.VectorType):
            return None
        slot = entry[0]
        comp = expr.component
        element_type = entry[1].element
        navigate = memory._navigate
        limits = self.limits
        max_steps = self._max_steps
        length = entry[1].length
        path = (comp,)

        def run_vector_load(rt):
            # _eval tick + VectorComponent lvalue tick + VarRef lvalue tick.
            s = limits.steps + 3
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            container = rt.locals[slot].value
            if container.__class__ is vals.VectorValue and 0 <= comp < length:
                return _mk_scalar(element_type, container.elements[comp])
            return navigate(container, path)
        return _C(run_vector_load, False)

    def _compile_vector_literal(self, expr: ast.VectorLiteral, scope: _Scope) -> _C:
        tick = self._tick
        vtype = expr.type
        length = vtype.length
        elements = [self._compile_expr(e, scope) for e in expr.elements]
        if not any(c.yields for c in elements):
            fns = [c.fn for c in elements]

            def run_vector(rt):
                tick()
                components: List[int] = []
                for efn in fns:
                    value = efn(rt)
                    if isinstance(value, vals.VectorValue):
                        components.extend(value.elements)
                    else:
                        components.append(ops.as_int(value))
                if len(components) == 1:
                    components = components * length
                if len(components) != length:
                    raise UndefinedBehaviourError(
                        UBKind.INVALID_FIELD,
                        f"vector literal with {len(components)} components for {vtype}",
                    )
                return vals.VectorValue(vtype, components)
            return _C(run_vector, False)

        def run_vector_gen(rt):
            tick()
            components: List[int] = []
            for ec in elements:
                value = yield from _ev(ec, rt)
                if isinstance(value, vals.VectorValue):
                    components.extend(value.elements)
                else:
                    components.append(ops.as_int(value))
            if len(components) == 1:
                components = components * length
            if len(components) != length:
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD,
                    f"vector literal with {len(components)} components for {vtype}",
                )
            return vals.VectorValue(vtype, components)
        return _C(run_vector_gen, True)

    def _compile_binary(self, expr: ast.BinaryOp, scope: _Scope) -> _C:
        tick = self._tick
        limits = self.limits
        max_steps = self._max_steps
        op = expr.op
        left = self._compile_expr(expr.left, scope)
        right = self._compile_expr(expr.right, scope)
        plain = not left.yields and not right.yields
        if op in ("&&", "||"):
            if plain:
                # An int 0 or 1 whatever the operands' types: always typed.
                ltruth, rtruth = _truth_fn(left), _truth_fn(right)
                if op == "&&":
                    def run_and_raw(rt):
                        tick()
                        if not ltruth(rt):
                            return 0
                        return 1 if rtruth(rt) else 0
                    return _typed(run_and_raw, ty.INT)

                def run_or_raw(rt):
                    tick()
                    if ltruth(rt):
                        return 1
                    return 1 if rtruth(rt) else 0
                return _typed(run_or_raw, ty.INT)
            is_and = op == "&&"

            def run_logical_gen(rt):
                tick()
                left_true = ops.truthy((yield from _ev(left, rt)))
                if is_and and not left_true:
                    return _INT0
                if not is_and and left_true:
                    return _INT1
                return _INT1 if ops.truthy((yield from _ev(right, rt))) else _INT0
            return _C(run_logical_gen, True)
        if op == ",":
            comma_zero = self.comma_yields_zero
            if plain:
                # The left operand runs for its effects only.
                lfn = left.raw if left.raw is not None else left.fn
                rraw = right.raw
                if rraw is not None:
                    if comma_zero:
                        def run_comma_zero_raw(rt):
                            tick()
                            lfn(rt)
                            rraw(rt)
                            return 0  # Injected Oclgrind defect (Figure 2(f)).
                        return _typed(run_comma_zero_raw, right.itype)

                    def run_comma_raw(rt):
                        tick()
                        lfn(rt)
                        return rraw(rt)
                    return _typed(run_comma_raw, right.itype)
                rfn = right.fn
                if not comma_zero:
                    def run_comma(rt):
                        tick()
                        lfn(rt)
                        return rfn(rt)
                    return _C(run_comma, False)

                def run_comma_zero(rt):
                    tick()
                    lfn(rt)
                    value = rfn(rt)
                    # Injected Oclgrind defect (Figure 2(f)).
                    if isinstance(value, vals.ScalarValue):
                        return vals.ScalarValue(value.type, 0)
                    return value
                return _C(run_comma_zero, False)

            def run_comma_gen(rt):
                tick()
                yield from _ev(left, rt)
                value = yield from _ev(right, rt)
                if comma_zero:
                    if isinstance(value, vals.ScalarValue):
                        return vals.ScalarValue(value.type, 0)
                return value
            return _C(run_comma_gen, True)
        is_comparison = op in ast.COMPARISON_OPERATORS
        if plain and left.raw is not None and right.raw is not None:
            lraw, rraw = left.raw, right.raw
            if is_comparison:
                compare_raw = ops.COMPARISONS[op]

                def run_compare_raw(rt):
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    return compare_raw(lraw(rt), rraw(rt))
                return _typed(run_compare_raw, ty.INT)
            itype = ty.common_scalar_type(left.itype, right.itype)
            scalar_arith = ops.scalar_arith

            def run_arith_raw(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                return scalar_arith(op, lraw(rt), rraw(rt), itype)
            return _typed(run_arith_raw, itype)
        if plain:
            lfn, rfn = left.fn, right.fn
            scalar_arith = ops.scalar_arith
            common_scalar_type = ty.common_scalar_type
            compare = ops.compare

            def run_binary(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                lhs = lfn(rt)
                rhs = rfn(rt)
                # Scalar-scalar fast path, identical to ops.binary's
                # (scalar_arith returns an already-wrapped raw value).
                if lhs.__class__ is _SV and rhs.__class__ is _SV:
                    if is_comparison:
                        return _mk_scalar(ty.INT, compare(op, lhs.value, rhs.value))
                    result_type = common_scalar_type(lhs.type, rhs.type)
                    raw = scalar_arith(op, lhs.value, rhs.value, result_type)
                    return _mk_scalar(result_type, raw)
                return ops.binary(op, lhs, rhs)
            return _C(run_binary, False)

        def run_binary_gen(rt):
            tick()
            lhs = yield from _ev(left, rt)
            rhs = yield from _ev(right, rt)
            return ops.binary(op, lhs, rhs)
        return _C(run_binary_gen, True)

    def _compile_rvalue_access(self, expr: ast.Expr, scope: _Scope) -> _C:
        """Field/index/component access into a temporary value."""
        tick = self._tick
        if isinstance(expr, ast.VectorComponent):
            comp = expr.component
            base = self._compile_expr(expr.base, scope)
            if not base.yields:
                bfn = base.fn

                def run_rv_component(rt):
                    tick()
                    value = bfn(rt)
                    return _rvalue_component(value, comp)
                return _C(run_rv_component, False)

            def run_rv_component_gen(rt):
                tick()
                value = yield from base.fn(rt)
                return _rvalue_component(value, comp)
            return _C(run_rv_component_gen, True)
        if isinstance(expr, ast.FieldAccess):
            fname = expr.field
            base = self._compile_expr(expr.base, scope)
            if not base.yields:
                bfn = base.fn

                def run_rv_field(rt):
                    tick()
                    return _rvalue_field(bfn(rt), fname)
                return _C(run_rv_field, False)

            def run_rv_field_gen(rt):
                tick()
                return _rvalue_field((yield from base.fn(rt)), fname)
            return _C(run_rv_field_gen, True)
        if isinstance(expr, ast.IndexAccess):
            index = self._compile_expr(expr.index, scope)
            base = self._compile_expr(expr.base, scope)
            if not index.yields and not base.yields:
                ifn, bfn = _int_fn(index), base.fn

                def run_rv_index(rt):
                    tick()
                    idx = ifn(rt)
                    return _rvalue_index(bfn(rt), idx)
                return _C(run_rv_index, False)

            def run_rv_index_gen(rt):
                tick()
                idx = ops.as_int((yield from _ev(index, rt)))
                return _rvalue_index((yield from _ev(base, rt)), idx)
            return _C(run_rv_index_gen, True)
        return self._raise_c(  # pragma: no cover - defensive
            1, UBKind.INVALID_FIELD, f"unsupported rvalue access {type(expr).__name__}"
        )

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _compile_call(self, expr: ast.Call, scope: _Scope) -> _C:
        tick = self._tick
        name = expr.name
        if name == "__trap":
            def run_trap(rt):
                tick()
                raise RuntimeCrash("injected runtime fault")
            return _C(run_trap, False)
        if name in builtins.ATOMIC_BUILTINS:
            return self._compile_atomic(expr, scope)
        if name in builtins.SCALAR_BUILTINS:
            spec = builtins.SCALAR_BUILTINS[name]
            args = [self._compile_expr(a, scope) for a in expr.args]
            if not any(c.yields for c in args):
                if len(args) == 2:
                    return self._compile_builtin2(spec, args)
                fns = [c.fn for c in args]
                limits = self.limits
                max_steps = self._max_steps

                def run_builtin(rt):
                    s = limits.steps + 1
                    limits.steps = s
                    if s > max_steps:
                        raise ExecutionTimeout(max_steps + 1)
                    return _apply_builtin_fast(spec, [fn(rt) for fn in fns])
                return _C(run_builtin, False)

            def run_builtin_gen(rt):
                tick()
                values = []
                for c in args:
                    values.append((yield from _ev(c, rt)))
                return ops.apply_scalar_builtin(spec, values)
            return _C(run_builtin_gen, True)
        return self._compile_user_call(expr, scope)

    def _compile_builtin2(self, spec: builtins.BuiltinSpec, args: List[_C]) -> _C:
        """A plain 2-argument scalar builtin.  The result type is the first
        argument's (``ops.builtin_result_type``), so the node is typed when
        both arguments are."""
        limits = self.limits
        max_steps = self._max_steps
        raw_fn = spec.fn
        first, second = args
        f1 = second.raw
        if first.raw is not None and f1 is not None:
            f0 = first.raw
            itype = first.itype
            half, mask = itype.half, itype.mask

            def run_builtin2_raw(rt):
                s = limits.steps + 1
                limits.steps = s
                if s > max_steps:
                    raise ExecutionTimeout(max_steps + 1)
                a = f0(rt)
                b = f1(rt)
                try:
                    result = raw_fn(a, b, itype)
                except builtins.BuiltinUndefined as exc:
                    raise UndefinedBehaviourError(UBKind.BUILTIN_UNDEFINED, str(exc)) from exc
                return ((result + half) & mask) - half
            return _typed(run_builtin2_raw, itype)
        f0, f1 = first.fn, second.fn

        def run_builtin2(rt):
            s = limits.steps + 1
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            a = f0(rt)
            b = f1(rt)
            if a.__class__ is _SV and b.__class__ is _SV:
                scalar_type = a.type
                try:
                    result = raw_fn(a.value, b.value, scalar_type)
                except builtins.BuiltinUndefined as exc:
                    raise UndefinedBehaviourError(
                        UBKind.BUILTIN_UNDEFINED, str(exc)
                    ) from exc
                return _mk_scalar(scalar_type, scalar_type.wrap(result))
            return ops.apply_scalar_builtin(spec, [a, b])
        return _C(run_builtin2, False)

    def _compile_atomic(self, expr: ast.Call, scope: _Scope) -> _C:
        tick = self._tick
        atomic_fn = ops.ATOMIC_OPS[expr.name]
        target = expr.args[0] if expr.args else None
        if (
            isinstance(target, ast.AddressOf)
            and isinstance(target.operand, ast.IndexAccess)
            and self._is_pointer_expr(target.operand.base, scope)
        ):
            return self._compile_atomic_index(expr, scope, atomic_fn)
        pointer = self._compile_expr(expr.args[0], scope)
        operands = [self._compile_expr(a, scope) for a in expr.args[1:]]

        def run_atomic(rt):
            tick()
            ptr = yield from _ev(pointer, rt)
            target = ops.pointer_target(ptr)
            values = []
            for c in operands:
                values.append(ops.as_int((yield from _ev(c, rt))))
            # Scheduling point: the interleaving of atomics across threads is
            # the only non-determinism OpenCL 1.x permits in our kernels.
            yield _ATOMIC_EVENT
            old = ops.as_int(target.read(rt.hook, atomic=True))
            result_type = target.type if isinstance(target.type, ty.IntType) else ty.UINT
            new = atomic_fn(old, values)
            target.write(vals.ScalarValue.wrap(result_type, new), rt.hook, atomic=True)
            return vals.ScalarValue.wrap(result_type, old)
        return _C(run_atomic, True)

    def _compile_atomic_index(
        self, expr: ast.Call, scope: _Scope, atomic_fn: Callable
    ) -> _C:
        """``atomic_op(&ptr[idx], ...)`` with ``ptr`` a pointer variable: the
        generic path's ticks, UB points, scheduling point and hook calls,
        without the LValue/PointerValue round trip."""
        target = expr.args[0].operand
        pslot = scope.lookup(target.base.name)[0]
        index = self._compile_expr(target.index, scope)
        operands = [self._compile_expr(a, scope) for a in expr.args[1:]]
        # Plain children are called directly; a yielding one (an atomic in
        # the index, say) is delegated to.
        ifn = None if index.yields else _int_fn(index)
        operand_fns = None
        if not any(c.yields for c in operands):
            operand_fns = [_int_fn(c) for c in operands]
        limits = self.limits
        max_steps = self._max_steps
        type_at_path = memory.type_at_path
        navigate = memory._navigate
        store = memory._store

        def run_atomic_index(rt):
            # The call tick, the AddressOf tick and the index lvalue tick.
            s = limits.steps + 3
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            if ifn is not None:
                i = ifn(rt)
            else:
                i = ops.as_int((yield from index.fn(rt)))
            s = limits.steps + 2  # the pointer VarRef eval + lvalue ticks
            limits.steps = s
            if s > max_steps:
                raise ExecutionTimeout(max_steps + 1)
            ptr = rt.locals[pslot].value
            if ptr.__class__ is _PV and ptr.cell is not None:
                cell = ptr.cell
                path = ptr.path + (i,)
            else:
                lv = ops.pointer_target(ptr).index(i)  # raises: null, non-pointer
                cell = lv.cell
                path = lv.path
            # Where taking the address computes the pointee type (and may
            # raise for a path the cell's type cannot follow).
            cell_type = cell.type
            if len(path) == 1 and cell_type.__class__ is ty.ArrayType:
                target_type = cell_type.element
            else:
                target_type = type_at_path(cell_type, path)
            if operand_fns is not None:
                values = [f(rt) for f in operand_fns]
            else:
                values = []
                for c in operands:
                    values.append(ops.as_int((yield from _ev(c, rt))))
            # Scheduling point, as in run_atomic.
            yield _ATOMIC_EVENT
            hook = rt.hook
            shared = hook is not None and cell.address_space in _SHARED_SPACES
            if shared:
                hook(cell, path, False, True)
            container = cell.value
            single = len(path) == 1 and container.__class__ is vals.ArrayValue
            if single:
                # Inline of _navigate (and below _store) for one index.
                if not 0 <= i < container.type.length:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS,
                        f"index {i} out of bounds for length {container.type.length}",
                    )
                old = container.elements[i]
            else:
                old = navigate(container, path)
            old = old.value if old.__class__ is _SV else ops.as_int(old)
            result_type = target_type if target_type.__class__ is ty.IntType else ty.UINT
            new = _box_int(atomic_fn(old, values), result_type)
            if shared:
                hook(cell, path, True, True)
            if single:
                container.elements[i] = new
            else:
                cell.value = store(container, path, new)
            cell.initialised = True
            return _box_int(old, result_type)
        return _C(run_atomic_index, True)

    def _compile_user_call(self, expr: ast.Call, scope: _Scope) -> _C:
        tick = self._tick
        name = expr.name
        decl = self._functions.get(name)
        if decl is None:
            def run_undefined(rt):
                tick()
                if rt.depth >= _MAX_CALL_DEPTH:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS, "call depth limit exceeded"
                    )
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, f"call to undefined function {name!r}"
                )
            return _C(run_undefined, False)
        if len(expr.args) != len(decl.params):
            def run_arity(rt):
                tick()
                if rt.depth >= _MAX_CALL_DEPTH:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS, "call depth limit exceeded"
                    )
                raise UndefinedBehaviourError(
                    UBKind.INVALID_FIELD, f"arity mismatch calling {name!r}"
                )
            return _C(run_arity, False)
        record = self._function_record(name)
        callee_yields = name in self._yielding_fns
        # Each argument is converted to its parameter's type: a fresh value
        # (pass by value needs no further copy), boxed here if typed.
        arg_steps = [
            (self._compile_converted(self._compile_expr(a, scope), p.type), p.name, p.type)
            for a, p in zip(expr.args, decl.params)
        ]
        if not callee_yields and not any(c.yields for c, _, _ in arg_steps):
            plain_steps = [(c.fn, pname, ptype) for c, pname, ptype in arg_steps]

            def run_call(rt):
                tick()
                if rt.depth >= _MAX_CALL_DEPTH:
                    raise UndefinedBehaviourError(
                        UBKind.OUT_OF_BOUNDS, "call depth limit exceeded"
                    )
                frame: List[Optional[memory.Cell]] = [None] * record.nslots
                slot = 0
                for afn, pname, ptype in plain_steps:
                    frame[slot] = memory.Cell(pname, ptype, afn(rt))
                    slot += 1
                saved = rt.locals
                rt.locals = frame
                rt.depth += 1
                fl = record.body(rt)
                rt.depth -= 1
                rt.locals = saved
                if fl is not None and fl.__class__ is tuple and fl[1] is not None:
                    return fl[1]
                return record.default_return()
            return _C(run_call, False)

        def run_call_gen(rt):
            tick()
            if rt.depth >= _MAX_CALL_DEPTH:
                raise UndefinedBehaviourError(
                    UBKind.OUT_OF_BOUNDS, "call depth limit exceeded"
                )
            frame: List[Optional[memory.Cell]] = [None] * record.nslots
            slot = 0
            for ac, pname, ptype in arg_steps:
                frame[slot] = memory.Cell(pname, ptype, (yield from _ev(ac, rt)))
                slot += 1
            saved = rt.locals
            rt.locals = frame
            rt.depth += 1
            if callee_yields:
                fl = yield from record.body(rt)
            else:
                fl = record.body(rt)
            rt.depth -= 1
            rt.locals = saved
            if fl is not None and fl.__class__ is tuple and fl[1] is not None:
                return fl[1]
            return record.default_return()
        return _C(run_call_gen, True)

    def _function_record(self, name: str) -> _FnRecord:
        record = self._fn_records.get(name)
        if record is not None:
            return record
        record = _FnRecord()
        self._fn_records[name] = record
        decl = self._functions[name]
        slots = _FnSlots()
        scope = _Scope(slots)
        for param in decl.params:
            scope.declare(param.name, param.type)
        body = self._compile_block(decl.body, scope)
        record.body = body.fn
        record.nslots = slots.count
        return_type = decl.return_type
        if isinstance(return_type, ty.VoidType):
            record.default_return = lambda: _INT0
        elif isinstance(return_type, ty.IntType):
            # Falling off the end of a value-returning function: C leaves the
            # value unspecified; the model defines it as 0 (deterministic).
            zero = vals.zero_value(return_type)
            record.default_return = lambda: zero
        else:
            record.default_return = lambda: vals.zero_value(return_type)
        return record

    # ------------------------------------------------------------------

    def _raise_c(self, ticks: int, kind: UBKind, message: str) -> _C:
        """A closure that ticks ``ticks`` steps and then raises UB.

        Used for constructs that are statically known to be erroneous when
        executed: the interpreter raises these at evaluation time, so the
        compiled engine must as well (never at lowering time -- the code
        may be dynamically unreachable).
        """
        tick = self._tick

        def run_raise(rt):
            if ticks:
                tick(ticks)
            raise UndefinedBehaviourError(kind, message)
        return _C(run_raise, False)


# ---------------------------------------------------------------------------
# Rvalue access helpers (shared via ops)
# ---------------------------------------------------------------------------

_rvalue_component = ops.rvalue_component
_rvalue_field = ops.rvalue_field
_rvalue_index = ops.rvalue_index
_workitem_raw = ops.workitem_raw
_wrap_size_t = ty.SIZE_T.wrap


# ---------------------------------------------------------------------------
# Program / launch / group wrappers
# ---------------------------------------------------------------------------


class CompiledProgram(PreparedProgram):
    """A kernel lowered to closures, independent of any launch's buffers."""

    def __init__(
        self,
        program: ast.Program,
        body: _C,
        nslots: int,
        param_specs: List[Tuple[int, str, ty.Type, object, bool]],
        wi_specs: List[Tuple[str, int]],
        limits: ExecutionLimits,
    ) -> None:
        self.program = program
        self._body = body
        self._nslots = nslots
        self._param_specs = param_specs
        self._wi_specs = wi_specs
        self._limits = limits

    def bind(self, global_memory: memory.GlobalMemory) -> "CompiledLaunch":
        # One active launch at a time: the closures tick this lowering's own
        # counter, so binding resets it for the new launch.
        self._limits.steps = 0
        inits: List[Tuple[int, str, ty.Type, object, bool]] = []
        for slot, name, type_, payload, is_raise in self._param_specs:
            if payload == "global" and not is_raise:
                value = vals.PointerValue(type_, global_memory.cell(name), ())
                inits.append((slot, name, type_, value, False))
            else:
                inits.append((slot, name, type_, payload, is_raise))
        return CompiledLaunch(self, inits)


class CompiledLaunch(PreparedLaunch):
    """A lowered kernel bound to one launch's global buffers."""

    def __init__(
        self,
        lowered: CompiledProgram,
        param_specs: List[Tuple[int, str, ty.Type, object, bool]],
    ) -> None:
        self._lowered = lowered
        self._param_specs = param_specs

    @property
    def steps(self) -> int:
        return self._lowered._limits.steps

    def bind_group(self, local_memory: memory.LocalMemory) -> "CompiledGroup":
        inits: List[Tuple[int, str, ty.Type, object, bool]] = []
        for slot, name, type_, payload, is_raise in self._param_specs:
            if payload == "local" and not is_raise:
                value = vals.PointerValue(type_, local_memory.cell(name), ())
                inits.append((slot, name, type_, value, False))
            else:
                inits.append((slot, name, type_, payload, is_raise))
        return CompiledGroup(self._lowered, inits)


class CompiledGroup(PreparedGroup):
    def __init__(
        self,
        lowered: CompiledProgram,
        param_inits: List[Tuple[int, str, ty.Type, object, bool]],
    ) -> None:
        self._lowered = lowered
        self._param_inits = param_inits

    def thread(
        self,
        context: ThreadContext,
        access_hook: Optional[memory.AccessHook] = None,
    ):
        lowered = self._lowered
        rt = _RT()
        rt.hook = access_hook
        rt.wi = [
            _wrap_size_t(_workitem_raw(fn, dim, context)) for fn, dim in lowered._wi_specs
        ]
        nslots = lowered._nslots
        param_inits = self._param_inits
        body = lowered._body

        if body.yields:
            def run_thread_gen():
                rt.locals = [None] * nslots
                for slot, name, type_, payload, is_raise in param_inits:
                    if is_raise:
                        payload()
                    rt.locals[slot] = memory.Cell(name, type_, payload)
                yield from body.fn(rt)
            return run_thread_gen()

        def run_thread():
            rt.locals = [None] * nslots
            for slot, name, type_, payload, is_raise in param_inits:
                if is_raise:
                    payload()
                rt.locals[slot] = memory.Cell(name, type_, payload)
            body.fn(rt)
            return
            yield  # pragma: no cover - makes this function a generator
        return run_thread()


def _raiser(kind: UBKind, message: str):
    def raise_it():
        raise UndefinedBehaviourError(kind, message)
    return raise_it


class CompiledEngine(ExecutionEngine):
    """The compile-to-closures fast path."""

    name = "compiled"

    def lower(
        self,
        program: ast.Program,
        comma_yields_zero: bool = False,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> CompiledProgram:
        return _Lowerer(program, comma_yields_zero, max_steps).lower()

    def lower_batch(
        self,
        programs: List[ast.Program],
        comma_yields_zero: bool = False,
        max_steps: int = DEFAULT_MAX_STEPS,
    ) -> List[CompiledProgram]:
        """Lower each program alone.  Nothing calls this: it exists only
        because ``perfbench/tracer.py`` patches ``CompiledEngine.lower_batch``
        by name, and goes when the benchmark drops that target."""
        return [self.lower(p, comma_yields_zero, max_steps) for p in programs]


__all__ = ["CompiledEngine", "CompiledProgram", "CompiledLaunch", "CompiledGroup"]
