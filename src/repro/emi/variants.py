"""EMI variant enumeration and the dead-array inversion filter.

The paper derives 40 variants per base program by sweeping
``p_leaf, p_compound, p_lift`` over ``{0, 0.3, 0.6, 1}`` subject to
``p_compound + p_lift <= 1`` (section 7.4).  :data:`PRUNING_GRID` enumerates
exactly that grid (4 x 10 = 40 configurations).

``invert_dead_array`` flips the host initialisation of the ``dead`` array so
that EMI guards become *true*; the paper uses this to discard base programs
whose EMI blocks were all placed in code that is already dead (inverting the
array would then not change the result).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.emi.pruning import PruningConfig, prune_program
from repro.kernel_lang import ast
from repro.platforms.calibration import program_fingerprint

_PROBABILITIES = (0.0, 0.3, 0.6, 1.0)


def _build_grid() -> List[PruningConfig]:
    grid: List[PruningConfig] = []
    for p_leaf in _PROBABILITIES:
        for p_compound in _PROBABILITIES:
            for p_lift in _PROBABILITIES:
                if p_compound + p_lift <= 1.0 + 1e-9:
                    grid.append(PruningConfig(p_leaf, p_compound, p_lift))
    return grid


#: The paper's 40-point pruning grid.
PRUNING_GRID: List[PruningConfig] = _build_grid()


def mark_base_fingerprint(program: ast.Program) -> ast.Program:
    """``program`` with its fingerprint recorded as the EMI base fingerprint.

    EMI variants inherit the value, which lets configuration defect models
    with ``stable_wrong_code`` behave identically across all variants of a
    base (see :mod:`repro.platforms.calibration`).  An already-marked program
    is returned as it is; otherwise the result is a copy with new metadata
    sharing ``program``'s nodes, and ``program`` itself is left untouched --
    it may already have been compiled (the contract in
    :mod:`repro.kernel_lang.ast`).
    """
    if "emi_base_fingerprint" in program.metadata:
        return program
    metadata = dict(program.metadata)
    metadata["emi_base_fingerprint"] = program_fingerprint(program)
    return dataclasses.replace(program, metadata=metadata)


def generate_variants(
    base: ast.Program,
    grid: Optional[Sequence[PruningConfig]] = None,
    seed: int = 0,
) -> List[ast.Program]:
    """Produce one pruned variant per grid point (the base is not included).

    Variant ``i`` depends only on ``grid[i]`` and seed ``seed + i``, so a
    caller that runs only the first ``n`` variants passes
    ``PRUNING_GRID[:n]`` and pays for nothing else.  Each variant carries the
    base's EMI fingerprint -- its mark, or else its fingerprint -- and is a
    path copy that shares every subtree outside the pruned EMI blocks with
    ``base``, which is left as it is (see :func:`prune_program`).
    """
    base_fingerprint = mark_base_fingerprint(base).metadata["emi_base_fingerprint"]
    variants: List[ast.Program] = []
    for index, config in enumerate(grid if grid is not None else PRUNING_GRID):
        variant = prune_program(base, config, seed=seed + index)
        metadata = dict(variant.metadata)
        metadata["emi_base_fingerprint"] = base_fingerprint
        metadata["emi_variant_index"] = index
        variants.append(dataclasses.replace(variant, metadata=metadata))
    return variants


def emi_family(
    base: ast.Program, variants_per_base: Optional[int], seed: int
) -> List[ast.Program]:
    """``base`` followed by its first ``variants_per_base`` pruned variants
    (the whole grid for ``None``): the family an EMI cell runs.  Callers
    mark or refresh the base's fingerprint first."""
    return [base] + generate_variants(base, PRUNING_GRID[:variants_per_base], seed=seed)


def invert_dead_array(program: ast.Program, dead_name: str = "dead") -> ast.Program:
    """Return a copy whose ``dead`` array initialisation is inverted.

    With ``dead[j] = size - j`` every ``dead[i] < dead[j]`` guard with
    ``j < i`` becomes true, so the EMI blocks execute.  Comparing the results
    of the normal and inverted programs tells whether the blocks were placed
    in live code (results differ) or in already-dead code (results equal);
    the paper discards bases of the latter kind when building Table 5.

    The copy swaps one buffer spec and the metadata and shares everything
    else -- its functions included -- with ``program``, which is left
    untouched.
    """
    buffers = [
        dataclasses.replace(spec, init="iota_inverted") if spec.name == dead_name else spec
        for spec in program.buffers
    ]
    metadata = dict(program.metadata)
    metadata["dead_array_inverted"] = True
    return dataclasses.replace(program, buffers=buffers, metadata=metadata)


__all__ = [
    "PRUNING_GRID",
    "emi_family",
    "generate_variants",
    "invert_dead_array",
    "mark_base_fingerprint",
]
