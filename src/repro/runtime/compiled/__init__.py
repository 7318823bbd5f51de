"""Compile-to-closures execution backend (the ``"compiled"`` engine).

Instead of re-walking the AST with isinstance dispatch for every statement a
thread executes, this backend lowers the kernel once into nested Python
closures (see :mod:`repro.runtime.compiled.lowering`) and then runs those
closures for every work-item; the device lowers every launch afresh and
binds that lowering once, to the launch's buffers.  Scheduling, memory, race
detection and value semantics are shared with the reference interpreter,
which is what makes the two engines differentially testable against each
other.
"""

from repro.runtime.compiled.lowering import CompiledEngine

__all__ = ["CompiledEngine"]
