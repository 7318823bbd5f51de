"""Abstract syntax tree for the kernel language.

The AST is deliberately close to OpenCL C: expressions include vector
literals, component accesses, the comma operator (needed for the Oclgrind
bug of Figure 2(f)), address-of/dereference, and calls to builtins or
user-defined functions; statements include barriers and the structured
control flow constructs that CLsmith emits.

Every node supports :meth:`children` (generic traversal used by analyses
and the printer tests) and :meth:`clone`, a deep copy for placing a copy of
a subtree at a second position of the same program.

Programs share subtrees, because path copying is the one way a program is
derived from another: the optimisation passes, the bug models and triage's
canonical renaming (:mod:`repro.compiler.rewrite`), EMI variants
(:func:`repro.emi.pruning.prune_program`), the EMI injector
(:mod:`repro.emi.injector`) and every reduction candidate
(:mod:`repro.reduction.passes`) rebuild only the path to what they change
and share every other node with their input.  A rewrite that changes
nothing returns its input -- the very node, function or program object it
was given -- and ``invert_dead_array`` and ``mark_base_fingerprint``
results share all of their input's functions.

Contract: no node is edited after it is built.  That is the whole soundness
condition of sharing -- an edit to a shared node would silently change every
program that reaches it -- and of :meth:`Program.memoised`, which keeps what
compilation derives from a program on the program object itself.  A
statement also sits at one position of a program, because the reduction
passes address the statements they edit by identity
(:func:`repro.compiler.rewrite.replace_statements`); a subtree needed at a
second position is placed there as a :meth:`clone` (unrolled loop bodies,
inlined calls, the ATOMIC SECTION hash).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro.kernel_lang import types as ty

_T = TypeVar("_T")


class Node:
    """Base class of all AST nodes."""

    def clone(self) -> "Node":
        """Return a deep copy of this node, to place at a second position of
        the same program.  Never a way to derive one program from another:
        that is a path copy (module docstring)."""
        return copy.deepcopy(self)

    def children(self) -> Iterator["Node"]:
        """Yield the direct child nodes (expressions and statements only)."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Yield this node and all descendants in pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for expressions."""


@dataclass
class IntLiteral(Expr):
    """An integer literal of a given scalar type."""

    value: int
    type: ty.IntType = ty.INT

    def children(self) -> Iterator[Node]:
        return iter(())


@dataclass
class VectorLiteral(Expr):
    """A vector constructor such as ``(int4)(1, 2, 3, 4)``.

    Elements may themselves be vectors of smaller length (OpenCL allows
    ``(int4)((int2)(1, 1), 1, 1)``, which Figure 1(c) relies on).
    """

    type: ty.VectorType
    elements: List[Expr]

    def children(self) -> Iterator[Node]:
        return iter(self.elements)


@dataclass
class VarRef(Expr):
    """A reference to a named variable or parameter."""

    name: str

    def children(self) -> Iterator[Node]:
        return iter(())


#: Work-item function kinds (paper section 3.1 notation).
WORKITEM_FUNCTIONS = (
    "get_global_id",
    "get_local_id",
    "get_group_id",
    "get_global_size",
    "get_local_size",
    "get_num_groups",
    "get_linear_global_id",
    "get_linear_local_id",
    "get_linear_group_id",
)


@dataclass
class WorkItemExpr(Expr):
    """A call to a work-item function, e.g. ``get_group_id(0)``.

    ``dimension`` is ignored for the ``get_linear_*`` helpers (which CLsmith
    emits as macros over the per-dimension functions).
    """

    function: str
    dimension: int = 0

    def children(self) -> Iterator[Node]:
        return iter(())


UNARY_OPERATORS = ("-", "~", "!", "+")
BINARY_OPERATORS = (
    "+",
    "-",
    "*",
    "/",
    "%",
    "<<",
    ">>",
    "&",
    "|",
    "^",
    "&&",
    "||",
    "==",
    "!=",
    "<",
    "<=",
    ">",
    ">=",
    ",",
)
COMPARISON_OPERATORS = ("==", "!=", "<", "<=", ">", ">=")
LOGICAL_OPERATORS = ("&&", "||")


@dataclass
class UnaryOp(Expr):
    """A unary arithmetic/logical operator applied to an operand."""

    op: str
    operand: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.operand,))


@dataclass
class BinaryOp(Expr):
    """A binary operator, including the comma operator ``,``."""

    op: str
    left: Expr
    right: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.left, self.right))


@dataclass
class Conditional(Expr):
    """The ternary conditional ``cond ? then : otherwise``."""

    cond: Expr
    then: Expr
    otherwise: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.cond, self.then, self.otherwise))


@dataclass
class Cast(Expr):
    """An explicit cast ``(type)expr`` between scalar types."""

    type: ty.Type
    operand: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.operand,))


@dataclass
class FieldAccess(Expr):
    """``base.field`` or ``base->field`` (``arrow=True``)."""

    base: Expr
    field: str
    arrow: bool = False

    def children(self) -> Iterator[Node]:
        return iter((self.base,))


@dataclass
class IndexAccess(Expr):
    """``base[index]`` array subscripting (also used for pointer indexing)."""

    base: Expr
    index: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.base, self.index))


#: Vector component letters in OpenCL (``.x``/``.y``/``.z``/``.w`` and ``.sN``).
VECTOR_COMPONENTS = ("x", "y", "z", "w")


@dataclass
class VectorComponent(Expr):
    """``base.x`` style single-component access on a vector expression."""

    base: Expr
    component: int

    def component_name(self) -> str:
        if self.component < len(VECTOR_COMPONENTS):
            return VECTOR_COMPONENTS[self.component]
        return f"s{self.component:x}"

    def children(self) -> Iterator[Node]:
        return iter((self.base,))


@dataclass
class AddressOf(Expr):
    """``&lvalue``."""

    operand: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.operand,))


@dataclass
class Deref(Expr):
    """``*pointer``."""

    operand: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.operand,))


@dataclass
class Call(Expr):
    """A call to a user function or a named builtin (``clamp``, ``rotate``,
    the ``safe_*`` wrappers, atomics, ...)."""

    name: str
    args: List[Expr]

    def children(self) -> Iterator[Node]:
        return iter(self.args)


@dataclass
class InitList(Expr):
    """A brace initialiser ``{ e1, e2, ... }`` for aggregates.

    Nested initialiser lists are supported; missing trailing elements are
    zero-initialised (C semantics), which the union-initialisation bug of
    Figure 2(a) depends on.
    """

    elements: List[Expr]

    def children(self) -> Iterator[Node]:
        return iter(self.elements)


@dataclass
class AssignExpr(Expr):
    """An assignment used in expression position (e.g. in a ``for`` header)."""

    target: Expr
    value: Expr
    op: str = "="

    def children(self) -> Iterator[Node]:
        return iter((self.target, self.value))


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Stmt(Node):
    """Base class for statements."""


@dataclass
class Block(Stmt):
    """A compound statement ``{ ... }``."""

    statements: List[Stmt] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        return iter(self.statements)


@dataclass
class DeclStmt(Stmt):
    """A local variable declaration with optional initialiser."""

    name: str
    type: ty.Type
    init: Optional[Expr] = None
    address_space: str = ty.PRIVATE
    volatile: bool = False

    def children(self) -> Iterator[Node]:
        return iter(() if self.init is None else (self.init,))


@dataclass
class AssignStmt(Stmt):
    """``target op= value;`` where ``op`` is ``=``, ``+=``, ``^=``, ..."""

    target: Expr
    value: Expr
    op: str = "="

    def children(self) -> Iterator[Node]:
        return iter((self.target, self.value))


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects (e.g. an atomic call)."""

    expr: Expr

    def children(self) -> Iterator[Node]:
        return iter((self.expr,))


@dataclass
class IfStmt(Stmt):
    """``if (cond) then_block else else_block``.

    ``emi_marker`` tags dead-by-construction EMI blocks (paper section 5);
    ``atomic_section`` tags ATOMIC SECTION mode bodies (paper section 4.2).
    """

    cond: Expr
    then_block: Block
    else_block: Optional[Block] = None
    emi_marker: Optional[int] = None
    atomic_section: bool = False

    def children(self) -> Iterator[Node]:
        if self.else_block is None:
            return iter((self.cond, self.then_block))
        return iter((self.cond, self.then_block, self.else_block))


@dataclass
class ForStmt(Stmt):
    """A ``for`` loop with optional init/cond/update parts."""

    init: Optional[Stmt]
    cond: Optional[Expr]
    update: Optional[Stmt]
    body: Block

    def children(self) -> Iterator[Node]:
        parts: List[Node] = []
        if self.init is not None:
            parts.append(self.init)
        if self.cond is not None:
            parts.append(self.cond)
        if self.update is not None:
            parts.append(self.update)
        parts.append(self.body)
        return iter(parts)


@dataclass
class WhileStmt(Stmt):
    """A ``while`` loop."""

    cond: Expr
    body: Block

    def children(self) -> Iterator[Node]:
        return iter((self.cond, self.body))


@dataclass
class ReturnStmt(Stmt):
    """``return expr;`` (``expr`` may be None for void functions)."""

    value: Optional[Expr] = None

    def children(self) -> Iterator[Node]:
        return iter(() if self.value is None else (self.value,))


@dataclass
class BreakStmt(Stmt):
    pass


@dataclass
class ContinueStmt(Stmt):
    pass


#: Barrier fence flags (paper section 3.1).
LOCAL_MEM_FENCE = "CLK_LOCAL_MEM_FENCE"
GLOBAL_MEM_FENCE = "CLK_GLOBAL_MEM_FENCE"


@dataclass
class BarrierStmt(Stmt):
    """A work-group barrier with a memory-fence flag."""

    fence: str = LOCAL_MEM_FENCE

    def children(self) -> Iterator[Node]:
        return iter(())


# ---------------------------------------------------------------------------
# Declarations and programs
# ---------------------------------------------------------------------------


@dataclass
class ParamDecl:
    """A function or kernel parameter."""

    name: str
    type: ty.Type
    volatile: bool = False


@dataclass
class FunctionDecl(Node):
    """A function definition (or a forward declaration when ``body`` is None).

    Kernels are functions with ``is_kernel=True``; their pointer parameters
    are bound to launch buffers by :class:`KernelLaunch`.
    """

    name: str
    return_type: ty.Type
    params: List[ParamDecl]
    body: Optional[Block]
    is_kernel: bool = False

    def children(self) -> Iterator[Node]:
        return iter(() if self.body is None else (self.body,))


@dataclass
class BufferSpec:
    """Description of a host-allocated buffer bound to a kernel parameter.

    ``init`` may be a list of integers (initial contents), the string
    ``"iota"`` (``buf[i] = i``, used for the EMI ``dead`` array), the string
    ``"iota_inverted"`` (``buf[i] = size - i``, used to invert the dead
    array when filtering EMI base programs; paper section 7.4), or ``"zero"``.
    """

    name: str
    element_type: ty.IntType
    size: int
    address_space: str = ty.GLOBAL
    init: Union[str, List[int]] = "zero"
    is_output: bool = False

    def initial_contents(self) -> List[int]:
        if isinstance(self.init, list):
            contents = list(self.init)
            if len(contents) < self.size:
                contents.extend([0] * (self.size - len(contents)))
            return contents[: self.size]
        if self.init == "zero":
            return [0] * self.size
        if self.init == "one":
            return [1] * self.size
        if self.init == "iota":
            return list(range(self.size))
        if self.init == "iota_inverted":
            return [self.size - i for i in range(self.size)]
        raise ValueError(f"unknown buffer init spec {self.init!r}")


@dataclass
class LaunchSpec:
    """NDRange launch geometry: global size and work-group size per dimension."""

    global_size: Tuple[int, int, int] = (1, 1, 1)
    local_size: Tuple[int, int, int] = (1, 1, 1)

    def __post_init__(self) -> None:
        for n, w in zip(self.global_size, self.local_size):
            if w <= 0 or n <= 0:
                raise ValueError("launch dimensions must be positive")
            if n % w != 0:
                raise ValueError(
                    f"work-group size {self.local_size} does not divide "
                    f"global size {self.global_size}"
                )

    @property
    def total_threads(self) -> int:
        gx, gy, gz = self.global_size
        return gx * gy * gz

    @property
    def group_size(self) -> int:
        lx, ly, lz = self.local_size
        return lx * ly * lz

    @property
    def num_groups(self) -> Tuple[int, int, int]:
        return tuple(n // w for n, w in zip(self.global_size, self.local_size))

    @property
    def total_groups(self) -> int:
        nx, ny, nz = self.num_groups
        return nx * ny * nz


@dataclass
class Program(Node):
    """A complete translation unit plus its launch configuration.

    A program owns its struct/union definitions, its functions (one of which
    is the kernel entry point), the buffers the host binds to the kernel's
    pointer parameters, and the NDRange geometry.  The ``metadata`` dict is
    used by the generator and the EMI machinery to record provenance (mode,
    seed, EMI block count, ...).
    """

    structs: List[Union[ty.StructType, ty.UnionType]] = field(default_factory=list)
    functions: List[FunctionDecl] = field(default_factory=list)
    kernel_name: str = "entry"
    buffers: List[BufferSpec] = field(default_factory=list)
    launch: LaunchSpec = field(default_factory=LaunchSpec)
    metadata: Dict[str, object] = field(default_factory=dict)

    def children(self) -> Iterator[Node]:
        return iter(self.functions)

    def kernel(self) -> FunctionDecl:
        for fn in self.functions:
            if fn.name == self.kernel_name and fn.body is not None:
                return fn
        raise KeyError(f"program has no kernel named {self.kernel_name!r}")

    def function(self, name: str) -> FunctionDecl:
        for fn in self.functions:
            if fn.name == name and fn.body is not None:
                return fn
        raise KeyError(f"program has no function named {name!r}")

    def has_function(self, name: str) -> bool:
        return any(fn.name == name and fn.body is not None for fn in self.functions)

    def buffer(self, name: str) -> BufferSpec:
        for buf in self.buffers:
            if buf.name == name:
                return buf
        raise KeyError(f"program has no buffer named {name!r}")

    def output_buffers(self) -> List[BufferSpec]:
        return [b for b in self.buffers if b.is_output]

    def memoised(self, key: Hashable, compute: Callable[[], _T]) -> _T:
        """``compute()``, evaluated at most once per program object and ``key``.

        The one lookup behind every fact compilation derives from a program
        whatever the configuration: its fingerprint, its validation verdict,
        the default pipeline's output, its census (the one walk its feature
        flags, bug-model patterns and reduction size read) and each named
        bug model's verdict.  Sound because no node is edited after it is
        built (module docstring).
        """
        try:
            memo = self._memo
        except AttributeError:
            memo = self._memo = {}
        if key not in memo:
            memo[key] = compute()
        return memo[key]

    def __getstate__(self) -> Dict[str, object]:
        # Copies -- clone(), copy.copy, pickled jobs and stored reproducers --
        # start with an empty memo: it caches facts about this object, and a
        # pickle carries the program, not what was derived from it.
        state = dict(self.__dict__)
        state.pop("_memo", None)
        return state


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def lit(value: int, type_: ty.IntType = ty.INT) -> IntLiteral:
    """Shorthand for an integer literal."""
    return IntLiteral(value, type_)


def var(name: str) -> VarRef:
    return VarRef(name)


def binop(op: str, left: Expr, right: Expr) -> BinaryOp:
    return BinaryOp(op, left, right)


def assign(target: Expr, value: Expr, op: str = "=") -> AssignStmt:
    return AssignStmt(target, value, op)


def block(*statements: Stmt) -> Block:
    return Block(list(statements))


def call(name: str, *args: Expr) -> Call:
    return Call(name, list(args))


def global_linear_id() -> WorkItemExpr:
    """``tlinear`` in the paper's notation."""
    return WorkItemExpr("get_linear_global_id")


def local_linear_id() -> WorkItemExpr:
    """``llinear`` in the paper's notation."""
    return WorkItemExpr("get_linear_local_id")


def group_linear_id() -> WorkItemExpr:
    """``glinear`` in the paper's notation."""
    return WorkItemExpr("get_linear_group_id")


def out_write(expr: Expr, out_name: str = "out") -> AssignStmt:
    """``out[tlinear] = expr;`` -- the result-reporting idiom of CLsmith."""
    return AssignStmt(IndexAccess(VarRef(out_name), global_linear_id()), expr)


def count_nodes(node: Node) -> int:
    """Number of AST nodes reachable from ``node`` (used as a size metric)."""
    return sum(1 for _ in node.walk())


def find_statements(node: Node, predicate) -> List[Stmt]:
    """Collect all statements under ``node`` satisfying ``predicate``."""
    return [n for n in node.walk() if isinstance(n, Stmt) and predicate(n)]


__all__ = [
    "Node",
    "Expr",
    "IntLiteral",
    "VectorLiteral",
    "VarRef",
    "WorkItemExpr",
    "WORKITEM_FUNCTIONS",
    "UnaryOp",
    "BinaryOp",
    "Conditional",
    "Cast",
    "FieldAccess",
    "IndexAccess",
    "VectorComponent",
    "AddressOf",
    "Deref",
    "Call",
    "InitList",
    "AssignExpr",
    "Stmt",
    "Block",
    "DeclStmt",
    "AssignStmt",
    "ExprStmt",
    "IfStmt",
    "ForStmt",
    "WhileStmt",
    "ReturnStmt",
    "BreakStmt",
    "ContinueStmt",
    "BarrierStmt",
    "LOCAL_MEM_FENCE",
    "GLOBAL_MEM_FENCE",
    "ParamDecl",
    "FunctionDecl",
    "BufferSpec",
    "LaunchSpec",
    "Program",
    "UNARY_OPERATORS",
    "BINARY_OPERATORS",
    "COMPARISON_OPERATORS",
    "LOGICAL_OPERATORS",
    "VECTOR_COMPONENTS",
    "lit",
    "var",
    "binop",
    "assign",
    "block",
    "call",
    "global_linear_id",
    "local_linear_id",
    "group_linear_id",
    "out_write",
    "count_nodes",
    "find_statements",
]
