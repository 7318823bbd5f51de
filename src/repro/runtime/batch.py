"""Shareability analysis for family (batched) lowering.

An EMI family is a base program plus variants that differ only by pruned
injected-dead-code blocks (see :mod:`repro.emi.variants`): most helper
functions are byte-identical across the family, and batched lowering
(:meth:`~repro.runtime.engine.ExecutionEngine.lower_batch`) exploits that by
lowering each shared helper once and reusing it across every member of the
batch.

Sharing a helper is sound only under *deep* structural equality: a variant
may redefine a function the base also defines (a pruned EMI block inside its
body), and a function that is itself unchanged may call one that changed.
:func:`shareable_functions` computes the safe set: a variant function is
shareable iff its declaration equals the base's **and** every user function
it transitively calls is shareable too.  AST nodes and types are plain
``@dataclass`` values (types frozen), so ``==`` is true structural equality
even across :func:`copy.deepcopy` -- the property the EMI variant generator
relies on as well.

Equality of the reachable subgraph implies equality of every derived
analysis (yielding status, scope shapes, tick counts), so a shared lowering
behaves byte-identically to a private one.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.kernel_lang import ast


def member_key(program: ast.Program) -> Tuple[str, str, str, str]:
    """A cheap, sound dedup key for batch members.

    EMI variant pruning frequently regenerates the *same* program (pruning
    different injected blocks can converge on one residue), so batches
    routinely contain structurally identical members.  Lowering one of them
    covers all: a lowering observes exactly the printed kernel source, the
    scalar arguments (the *only* metadata that specialises the lowered
    entry -- bookkeeping keys like ``emi_variant_index`` differ across
    structurally identical variants and must not break sharing), the buffer
    specs (parameter plans) and the launch geometry -- all captured here.
    Equal keys imply byte-identical lowerings; unequal keys for equal
    programs merely forgo sharing (conservative, never unsound).
    """
    from repro.kernel_lang.printer import print_program

    return (
        print_program(program),
        repr(sorted(program.metadata.get("scalar_args", {}).items())),
        repr(program.buffers),
        repr(program.launch),
    )


def dedup_members(
    programs: List[ast.Program],
) -> Tuple[List[ast.Program], List[int]]:
    """Collapse structurally identical batch members, first-seen order.

    Returns ``(distinct, slots)`` where member ``i``'s lowering comes from
    ``distinct[slots[i]]``.  Duplicate members share one
    :class:`~repro.runtime.engine.PreparedProgram` -- sound because
    launches are strictly sequential and ``bind`` resets per-launch state.
    """
    slots: Dict[Tuple[str, str, str, str], int] = {}
    distinct: List[ast.Program] = []
    member_slots: List[int] = []
    for program in programs:
        key = member_key(program)
        index = slots.get(key)
        if index is None:
            index = slots[key] = len(distinct)
            distinct.append(program)
        member_slots.append(index)
    return distinct, member_slots


def _user_callees(
    decl: ast.FunctionDecl, functions: Dict[str, ast.FunctionDecl]
) -> Set[str]:
    """Names of user functions called (directly) from ``decl``'s body."""
    if decl.body is None:
        return set()
    return {
        node.name
        for node in decl.body.walk()
        if isinstance(node, ast.Call) and node.name in functions
    }


def shareable_functions(
    base_functions: Dict[str, ast.FunctionDecl],
    variant_functions: Dict[str, ast.FunctionDecl],
) -> Set[str]:
    """Variant function names whose lowering can be reused from the base.

    A name qualifies when the variant's declaration is structurally equal to
    the base's and every user function it transitively calls qualifies too
    (computed as a fixpoint: names with an unshareable callee are removed
    until the set is stable).  The result is a subset of
    ``variant_functions``.
    """
    shareable = {
        name
        for name, decl in variant_functions.items()
        if name in base_functions
        and decl.body is not None
        and base_functions[name].body is not None
        and decl == base_functions[name]
    }
    callees = {
        name: _user_callees(variant_functions[name], variant_functions)
        for name in shareable
    }
    changed = True
    while changed:
        changed = False
        for name in sorted(shareable):
            if not callees[name] <= shareable:
                shareable.discard(name)
                changed = True
    return shareable


__all__ = ["dedup_members", "member_key", "shareable_functions"]
