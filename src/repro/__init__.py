"""Reproduction of "Many-Core Compiler Fuzzing" (Lidbury, Lascu, Chong,
Donaldson; PLDI 2015).

The package provides:

* :mod:`repro.kernel_lang` -- an OpenCL-C-like kernel language (types,
  values, AST, builtins, printer, static checks);
* :mod:`repro.runtime` -- a simulated OpenCL device (NDRange execution,
  memory spaces, barriers, atomics, race detection);
* :mod:`repro.compiler` -- an optimising compiler pipeline with an
  ``-cl-opt-disable`` equivalent;
* :mod:`repro.platforms` -- the paper's 21 (device, compiler) configurations
  with injected bug models and calibrated defect rates;
* :mod:`repro.generator` -- the CLsmith reproduction (six generation modes);
* :mod:`repro.emi` -- EMI testing via dead-by-construction code injection and
  the leaf/compound/lift pruning strategies;
* :mod:`repro.testing` -- differential and EMI harnesses, reliability
  classification, campaign orchestration, and the Figure 1/2 bug exemplars;
* :mod:`repro.orchestration` -- the sharded campaign execution engine
  (serialisable jobs, serial/process worker pools, bounded caches);
* :mod:`repro.reduction` -- automated test-case reduction: seeded
  deterministic delta debugging with UB-guarded interestingness predicates
  and campaign auto-reduction (REDUCTION.md);
* :mod:`repro.triage` -- bug triage: dedup bucketing by canonical
  fingerprints, culprit bisection over bug models and optimisation passes,
  and the persistent resumable campaign store (TRIAGE.md);
* :mod:`repro.workloads` -- miniature Parboil/Rodinia benchmarks (Table 2).
"""

__version__ = "0.1.0"

__all__ = [
    "kernel_lang",
    "runtime",
    "compiler",
    "platforms",
    "generator",
    "emi",
    "testing",
    "orchestration",
    "reduction",
    "triage",
    "workloads",
]
