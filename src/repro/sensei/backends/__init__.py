"""Analysis back-ends.

:class:`~repro.sensei.backends.binning.BinningAnalysis`, the data
binning operator used in the paper's evaluation, is the one back-end.
It derives from :class:`repro.sensei.analysis_adaptor.AnalysisAdaptor`
and therefore inherits the heterogeneous execution controls (execution
method, placement) the paper adds to the base class.
"""

from repro.sensei.backends.binning import BinningAnalysis

__all__ = ["BinningAnalysis"]
