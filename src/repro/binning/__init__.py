"""In situ data binning (paper Section 4.2).

Given tabular data where columns represent variables and rows represent
co-occurring realizations, data binning selects a subset of the
variables as coordinate axes of a uniform Cartesian mesh and transforms
the data into that coordinate system: each realization lands in the
mesh cell (bin) its coordinate values select; a per-cell counter yields
a histogram, and additional reductions (summation, minimum, maximum,
average) bin the non-coordinate variables.

Two implementations are provided, as in the paper:

- :mod:`repro.binning.cpu` — runs on the host;
- :mod:`repro.binning.cuda` — runs on an assigned virtual device, with
  the GPU's atomic-update penalty charged (the races between GPU
  threads incrementing the same bin are what make binning "not an
  ideal algorithm for GPUs").

:class:`~repro.binning.operator.DataBinner` orchestrates either
implementation, handles on-the-fly bounds computation, and merges
per-rank partial results over MPI.
"""

from repro.binning.axes import AxisSpec, compute_bounds, flat_bin_index
from repro.binning.reduce import ReductionOp
from repro.binning.cpu import bin_cpu
from repro.binning.cuda import BinPlan, bin_device
from repro.binning.strategies import BinningStrategy
from repro.binning.operator import BinRequest, DataBinner

__all__ = [
    "AxisSpec",
    "compute_bounds",
    "flat_bin_index",
    "ReductionOp",
    "bin_cpu",
    "BinPlan",
    "bin_device",
    "BinningStrategy",
    "BinRequest",
    "DataBinner",
]
