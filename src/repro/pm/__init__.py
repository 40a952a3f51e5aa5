"""Programming-model (PM) kernel launch.

The paper couples codes written in different PMs — the Newton++
simulation uses OpenMP target offload, the data-binning analysis uses
CUDA, and file writers use host-only C++.  What a PM *is* to the data
model is an allocator family: :class:`repro.hamr.allocator.Allocator`
records which PM manages each allocation (``Allocator.pm_kind``).

PM *interoperability* — code in one PM consuming data managed by
another — is a question of location plus allocator, answered by
:func:`repro.hamr.view.accessible_view`.  :func:`launch` runs a numpy
callable on the tagged storage, charges roofline time to the target's
timeline, and refuses any operand not accessible where it runs.
"""

from repro.pm.kernels import launch, KernelCost
from repro.hamr.allocator import PMKind

__all__ = [
    "PMKind",
    "launch",
    "KernelCost",
]
