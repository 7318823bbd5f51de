"""EMI block pruning: the *leaf*, *compound* and *lift* strategies.

The paper treats each EMI block as an abstract syntax tree whose leaf nodes
are non-compound statements and whose branch nodes are ``if`` and ``for``
statements.  Each node is considered for pruning:

* **leaf** -- delete a leaf statement with probability ``p_leaf``;
* **compound** -- delete a branch statement with probability ``p_compound``;
* **lift** -- promote the children of a branch node into its parent (the
  paper's novel strategy).  Lifting an ``if`` with then-block ``S`` and
  else-block ``T`` produces the sequence ``S; T``; lifting a ``for`` with
  initialiser ``S`` and body ``T`` produces ``S; T'`` where outermost
  ``break``/``continue`` statements are removed from ``T'`` so the result
  stays syntactically valid.

Because *compound* is applied before *lift* and both can remove a branch
node, lifting uses the adjusted probability
``p_lift' = p_lift / (1 - p_compound)`` and the configuration enforces
``p_compound + p_lift <= 1`` (paper section 5).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.kernel_lang import ast


@dataclass(frozen=True)
class PruningConfig:
    """Probabilities for the three pruning strategies."""

    p_leaf: float = 0.0
    p_compound: float = 0.0
    p_lift: float = 0.0

    def __post_init__(self) -> None:
        for name, p in (("p_leaf", self.p_leaf), ("p_compound", self.p_compound),
                        ("p_lift", self.p_lift)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.p_compound + self.p_lift > 1.0 + 1e-9:
            raise ValueError("p_compound + p_lift must not exceed 1 (paper section 5)")

    @property
    def adjusted_lift(self) -> float:
        """``p_lift / (1 - p_compound)``, the probability actually used."""
        if self.p_compound >= 1.0:
            return 0.0
        return min(1.0, self.p_lift / (1.0 - self.p_compound))

    def label(self) -> str:
        return f"leaf={self.p_leaf},compound={self.p_compound},lift={self.p_lift}"


def _is_branch(stmt: ast.Stmt) -> bool:
    return isinstance(stmt, (ast.IfStmt, ast.ForStmt))


def strip_outer_loop_control(block: ast.Block) -> ast.Block:
    """Remove break/continue statements at the outermost level of ``block``
    (not inside nested loops), keeping lifted loop bodies well-formed.

    Public because the test-case reducer's child-lifting pass
    (:mod:`repro.reduction.passes`) reuses exactly this idiom when it lifts a
    loop body into the enclosing block."""
    out: List[ast.Stmt] = []
    for stmt in block.statements:
        if isinstance(stmt, (ast.BreakStmt, ast.ContinueStmt)):
            continue
        if isinstance(stmt, ast.IfStmt):
            then_block = strip_outer_loop_control(stmt.then_block)
            else_block = (
                strip_outer_loop_control(stmt.else_block)
                if stmt.else_block is not None
                else None
            )
            out.append(ast.IfStmt(stmt.cond, then_block, else_block,
                                  emi_marker=stmt.emi_marker,
                                  atomic_section=stmt.atomic_section))
            continue
        if isinstance(stmt, ast.Block):
            out.append(strip_outer_loop_control(stmt))
            continue
        # Nested for/while keep their own break/continue statements.
        out.append(stmt)
    return ast.Block(out)


class _Pruner:
    def __init__(self, config: PruningConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng

    def prune_block(self, block: ast.Block) -> ast.Block:
        out: List[ast.Stmt] = []
        for stmt in block.statements:
            out.extend(self.prune_stmt(stmt))
        return ast.Block(out)

    def prune_stmt(self, stmt: ast.Stmt) -> List[ast.Stmt]:
        if _is_branch(stmt):
            # compound pruning first (paper: compound is applied before lift).
            if self.rng.random() < self.config.p_compound:
                return []
            if self.rng.random() < self.config.adjusted_lift:
                return self._lift(stmt)
            return [self._recurse(stmt)]
        if isinstance(stmt, ast.Block):
            return [self.prune_block(stmt)]
        # Leaf node.
        if self.rng.random() < self.config.p_leaf:
            return []
        return [stmt]

    def _recurse(self, stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.IfStmt):
            return ast.IfStmt(
                stmt.cond,
                self.prune_block(stmt.then_block),
                self.prune_block(stmt.else_block) if stmt.else_block is not None else None,
                emi_marker=stmt.emi_marker,
                atomic_section=stmt.atomic_section,
            )
        if isinstance(stmt, ast.ForStmt):
            return ast.ForStmt(stmt.init, stmt.cond, stmt.update, self.prune_block(stmt.body))
        return stmt

    def _lift(self, stmt: ast.Stmt) -> List[ast.Stmt]:
        if isinstance(stmt, ast.IfStmt):
            lifted: List[ast.Stmt] = list(self.prune_block(stmt.then_block).statements)
            if stmt.else_block is not None:
                lifted.extend(self.prune_block(stmt.else_block).statements)
            return lifted
        if isinstance(stmt, ast.ForStmt):
            lifted = []
            if stmt.init is not None:
                lifted.append(stmt.init)
            body = strip_outer_loop_control(self.prune_block(stmt.body))
            lifted.extend(body.statements)
            return lifted
        return [stmt]


def prune_program(
    program: ast.Program, config: PruningConfig, seed: int = 0
) -> ast.Program:
    """Return a variant of ``program`` with its EMI blocks pruned.

    Only the *contents* of blocks tagged with an ``emi_marker`` are pruned;
    live code is never touched, so the variant is equivalent modulo the input
    that makes the blocks dead (paper section 3.2, Definition of EMI).

    The variant is a path copy: it rebuilds the nodes from each function body
    down to each EMI block and shares every other subtree with ``program``,
    which is left untouched.
    """
    pruner = _Pruner(config, random.Random(seed))
    metadata = dict(program.metadata)
    metadata["emi_pruning"] = config.label()
    metadata["emi_pruning_seed"] = seed
    return replace(
        program,
        functions=[_prune_emi_blocks(fn, pruner) for fn in program.functions],
        metadata=metadata,
    )


#: The fields through which a node holds statements, in
#: :meth:`~repro.kernel_lang.ast.Node.children` order.
_STATEMENT_FIELDS = {
    ast.FunctionDecl: ("body",),
    ast.IfStmt: ("then_block", "else_block"),
    ast.ForStmt: ("init", "update", "body"),
    ast.WhileStmt: ("body",),
}


def _prune_emi_blocks(node: ast.Node, pruner: _Pruner) -> ast.Node:
    """``node`` with the EMI blocks under it pruned, visited in pre-order.

    Returns ``node`` itself when nothing under it changed, so only the path
    down to each EMI block is rebuilt.
    """
    if isinstance(node, ast.IfStmt) and node.emi_marker is not None:
        # Do not descend further: nested EMI blocks (if any) are pruned as
        # part of the enclosing block's contents.
        return replace(node, then_block=pruner.prune_block(node.then_block))
    if isinstance(node, ast.Block):
        statements = [_prune_emi_blocks(s, pruner) for s in node.statements]
        if all(new is old for new, old in zip(statements, node.statements)):
            return node
        return ast.Block(statements)
    changed = {}
    for name in _STATEMENT_FIELDS.get(type(node), ()):
        child = getattr(node, name)
        if child is not None:
            pruned = _prune_emi_blocks(child, pruner)
            if pruned is not child:
                changed[name] = pruned
    return replace(node, **changed) if changed else node


def count_emi_statements(program: ast.Program) -> int:
    """Total number of statements inside EMI blocks (a variant size metric)."""
    total = 0
    for fn in program.functions:
        if fn.body is None:
            continue
        for node in fn.body.walk():
            if isinstance(node, ast.IfStmt) and node.emi_marker is not None:
                total += sum(1 for n in node.then_block.walk() if isinstance(n, ast.Stmt))
    return total


__all__ = ["PruningConfig", "prune_program", "count_emi_statements",
           "strip_outer_loop_control"]
