"""Dedup bucketing: canonical bug fingerprints for reduced reproducers.

A fuzzing campaign does not find N bugs when it finds N anomalous kernels --
most anomalies are duplicates of a few underlying defects (the paper's
"distinct bugs" counting behind Table 3 and the bug gallery was a manual
dedup over thousands of reduced test cases).  This module mechanises that
step for the reproducers the reduction subsystem emits.

Two reduced reproducers are *the same bug* iff they agree on the canonical
bug fingerprint::

    bug_fingerprint = H(alpha-normalised printed source
                        x host setup (buffers, launch, scalar args)
                        x failure signature x predicate kind x mode)

The **alpha normalisation** (:func:`canonical_program`) renames every
function, parameter and local variable to position-derived names in a
deterministic structural traversal, and renames host buffers through the
kernel's parameter map -- so reproducers that differ only in identifier
spelling (different generator seeds routinely reduce to the same minimal
kernel with different variable names) collapse onto one canonical printed
form.  Generator metadata (mode, seed, EMI provenance) is dropped entirely,
which is what makes the fingerprint invariant under the kernel seed; only
``scalar_args`` survives (remapped), because it is part of the host-side
setup that decides what the kernel computes.  Struct/union *type* names are
left untouched: they are shared type objects rather than per-program
identifiers, and minimal reproducers that still need a struct to trigger
their bug almost always need its exact layout too -- keeping the name is
conservative (never merges two different bugs, at worst splits one).

The **failure signature** (the reduction predicate's preserved
``(cell label, outcome code)`` set) and the **generator mode** are part of
the fingerprint: two kernels with identical source that fail on different
configurations, with different outcome classes, or under different
generation modes are different bugs for triage purposes.

:func:`bucket_reductions` clusters :class:`~repro.reduction.reducer.
ReductionSummary` objects -- from one campaign or many (cross-campaign
dedup reads them back from a :class:`~repro.triage.store.CampaignStore`) --
into :class:`BugBucket`\\ s.  The representative of a bucket is its smallest
reproducer (fewest AST nodes, then fewest printer tokens, then lowest seed):
exactly the paper's convention of reporting the most reduced exemplar of
each bug.  Bucket order is deterministic: most severe worst-outcome first,
then signature, then fingerprint.

Invariance properties (property-tested in ``tests/test_triage.py``):
renaming variables/functions, changing the kernel seed metadata, and
printer round-trips (clone + re-print) never change the fingerprint, and
distinct injected defect configurations never collide on the synthetic
corpus.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.compiler import rewrite
from repro.kernel_lang import ast
from repro.kernel_lang.printer import print_program
from repro.platforms.calibration import hash_host_setup
from repro.reduction.interestingness import FAILURE_CODES, Signature
from repro.reduction.reducer import ReductionSummary
from repro.testing.outcomes import OUTCOME_SEVERITY

#: Severity rank of signature outcome codes: the failures of the Table 3
#: order ``w > bf > c > to > ng`` (``ng`` only appears in EMI signatures).
#: ``ok`` and any other code rank 0, below every failure.
_CODE_SEVERITY = {code: rank for code, rank in OUTCOME_SEVERITY.items() if rank > 0}


def worst_signature_code(signature: Signature) -> str:
    """The most severe outcome code appearing in a failure signature."""
    codes = [code for _, code in signature]
    if not codes:
        return "ok"
    return max(codes, key=lambda c: _CODE_SEVERITY.get(c, 0))


# ---------------------------------------------------------------------------
# Alpha normalisation
# ---------------------------------------------------------------------------


def _function_name_map(program: ast.Program) -> Dict[str, str]:
    """Old function name -> canonical ``fn<i>`` in declaration order.

    A forward declaration and its definition share a name, so the map is
    keyed by name (first occurrence wins) rather than by declaration index.
    """
    names: Dict[str, str] = {}
    for fn in program.functions:
        names.setdefault(fn.name, f"fn{len(names)}")
    return names


def _scope_name_map(fn: ast.FunctionDecl) -> Dict[str, str]:
    """Old parameter/local name -> canonical ``p<i>`` / ``v<i>``.

    Parameters first (signature order), then local declarations in body
    pre-order: the traversal is structural, so alpha-equivalent functions
    produce identical maps.
    """
    names: Dict[str, str] = {}
    for param in fn.params:
        names.setdefault(param.name, f"p{len(names)}")
    if fn.body is not None:
        locals_seen = 0
        for node in fn.body.walk():
            if isinstance(node, ast.DeclStmt) and node.name not in names:
                names[node.name] = f"v{locals_seen}"
                locals_seen += 1
    return names


def _renamed_function(
    fn: ast.FunctionDecl, scope: Dict[str, str], fn_names: Dict[str, str]
) -> ast.FunctionDecl:
    """``fn`` with its name, parameters, locals and calls renamed."""

    def rename_expr(expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, ast.VarRef):
            name = scope.get(expr.name, expr.name)
            return expr if name == expr.name else ast.VarRef(name)
        if isinstance(expr, ast.Call):
            name = fn_names.get(expr.name, expr.name)
            return expr if name == expr.name else ast.Call(name, list(expr.args))
        return expr

    def rename_decl(stmt: ast.Stmt) -> Optional[List[ast.Stmt]]:
        if isinstance(stmt, ast.DeclStmt) and scope[stmt.name] != stmt.name:
            return [
                ast.DeclStmt(
                    scope[stmt.name], stmt.type, stmt.init, stmt.address_space, stmt.volatile
                )
            ]
        return None

    return ast.FunctionDecl(
        fn_names[fn.name],
        fn.return_type,
        [dataclasses.replace(param, name=scope[param.name]) for param in fn.params],
        rewrite.rewrite_function(fn, rename_expr, rename_decl).body,
        fn.is_kernel,
    )


def canonical_program(program: ast.Program) -> ast.Program:
    """An alpha-renamed copy of ``program`` with generator metadata dropped.

    The copy is for fingerprinting only -- it prints and hashes, it is
    never executed -- but the renaming is nevertheless scope-correct:
    variable maps are per-function (a parameter ``x`` in two helpers is two
    different variables), function names are program-wide, and host buffers
    follow the kernel's parameter map so the program stays self-consistent.
    It is built with the rewrite helpers (:mod:`repro.compiler.rewrite`), not
    by cloning and renaming in place: it shares every node the renaming
    leaves alone with ``program``, which is left untouched, memo included.
    """
    fn_names = _function_name_map(program)
    kernel_scope: Dict[str, str] = {}
    functions = []
    for fn in program.functions:
        scope = _scope_name_map(fn)
        if fn.name == program.kernel_name and fn.body is not None:
            kernel_scope = scope
        functions.append(_renamed_function(fn, scope, fn_names))

    metadata: Dict[str, object] = {}
    scalar_args = program.metadata.get("scalar_args")
    if isinstance(scalar_args, dict) and scalar_args:
        metadata["scalar_args"] = {
            kernel_scope.get(name, name): value
            for name, value in scalar_args.items()
        }
    return dataclasses.replace(
        program,
        functions=functions,
        kernel_name=fn_names.get(program.kernel_name, program.kernel_name),
        buffers=[
            dataclasses.replace(buf, name=kernel_scope.get(buf.name, buf.name))
            for buf in program.buffers
        ],
        metadata=metadata,
    )


def canonical_forms(program: ast.Program) -> Tuple[str, str]:
    """(canonical printed source, canonical shape hash) in one pass.

    The shape hash mirrors :func:`repro.platforms.calibration.
    program_fingerprint` (source alone cannot distinguish two kernels whose
    buffers initialise differently) but on the canonical copy, so
    identifier spelling and generator metadata cannot split buckets.
    Alpha-normalisation is the dominant cost, so callers needing both forms
    (bucketing does, per representative) get them from one normalisation.
    """
    canon = canonical_program(program)
    source = print_program(canon)
    h = hashlib.sha256()
    h.update(source.encode())
    hash_host_setup(h, canon)
    return source, h.hexdigest()


def canonical_source(program: ast.Program) -> str:
    """The printed source of the alpha-normalised program."""
    return canonical_forms(program)[0]


def canonical_shape_hash(program: ast.Program) -> str:
    """Hash of the alpha-normalised program *and its host-side setup*."""
    return canonical_forms(program)[1]


def _fingerprint_of_shape(
    shape_hash: str, signature: Signature, mode: str, predicate_kind: str
) -> str:
    h = hashlib.sha256()
    h.update(shape_hash.encode())
    h.update(repr(tuple(signature)).encode())
    h.update(f"|{mode}|{predicate_kind}".encode())
    return h.hexdigest()


def bug_fingerprint(
    program: ast.Program,
    signature: Signature,
    mode: str,
    predicate_kind: str = "",
) -> str:
    """The canonical bug fingerprint two duplicates agree on (hex digest)."""
    return _fingerprint_of_shape(
        canonical_shape_hash(program), signature, mode, predicate_kind
    )


# ---------------------------------------------------------------------------
# Buckets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BucketMember:
    """One reduced reproducer's membership in a bucket (plain values)."""

    seed: int
    mode: str
    nodes_after: int
    tokens_after: int
    evaluations: int


@dataclass
class BugBucket:
    """A cluster of reduced reproducers believed to be the same bug."""

    key: str
    signature: Signature
    mode: str
    predicate_kind: str
    canonical_source: str
    #: The smallest member's full reduction summary (nodes, then tokens,
    #: then seed -- the paper's "most reduced exemplar" convention).
    representative: ReductionSummary
    members: List[BucketMember] = field(default_factory=list)
    #: Culprit attribution, filled in by the bisection stage when requested.
    culprit: Optional[object] = None

    @property
    def occurrences(self) -> int:
        return len(self.members)

    @property
    def worst_code(self) -> str:
        return worst_signature_code(self.signature)

    @property
    def short_key(self) -> str:
        return self.key[:12]


def _member(summary: ReductionSummary) -> BucketMember:
    return BucketMember(
        seed=summary.seed,
        mode=summary.mode,
        nodes_after=summary.nodes_after,
        tokens_after=summary.tokens_after,
        evaluations=summary.evaluations,
    )


def _representative_rank(summary: ReductionSummary) -> Tuple:
    return (summary.nodes_after, summary.tokens_after, summary.seed, summary.mode)


def bucket_reductions(summaries: Sequence[ReductionSummary]) -> List[BugBucket]:
    """Cluster reduction summaries into deduplicated bug buckets.

    Deterministic: the same multiset of summaries produces the same bucket
    list (keys, representatives, member order) regardless of input order --
    members are sorted by (seed, mode), buckets by worst outcome severity
    (descending), then signature, then fingerprint.
    """
    by_key: Dict[str, List[Tuple[ReductionSummary, str]]] = {}
    for summary in summaries:
        source, shape_hash = canonical_forms(summary.reduced_program)
        key = _fingerprint_of_shape(
            shape_hash, summary.signature, summary.mode, summary.predicate_kind
        )
        by_key.setdefault(key, []).append((summary, source))

    buckets: List[BugBucket] = []
    for key, group in by_key.items():
        representative, source = min(
            group, key=lambda pair: _representative_rank(pair[0])
        )
        members = sorted(
            (_member(s) for s, _ in group), key=lambda m: (m.seed, m.mode)
        )
        buckets.append(
            BugBucket(
                key=key,
                signature=tuple(representative.signature),
                mode=representative.mode,
                predicate_kind=representative.predicate_kind,
                canonical_source=source,
                representative=representative,
                members=members,
            )
        )
    buckets.sort(
        key=lambda b: (
            -_CODE_SEVERITY.get(b.worst_code, 0),
            b.signature,
            b.key,
        )
    )
    return buckets


__all__ = [
    "FAILURE_CODES",
    "worst_signature_code",
    "canonical_program",
    "canonical_source",
    "canonical_shape_hash",
    "bug_fingerprint",
    "BucketMember",
    "BugBucket",
    "bucket_reductions",
]
