"""Analysis back-ends.

Every back-end derives from
:class:`repro.sensei.analysis_adaptor.AnalysisAdaptor` and therefore
inherits the heterogeneous execution controls (execution method,
placement) the paper adds to the base class.

- :class:`~repro.sensei.backends.binning.BinningAnalysis` — the data
  binning operator used in the paper's evaluation;
- :class:`~repro.sensei.backends.histogram.HistogramAnalysis` — a 1-D
  histogram (SENSEI's classic smoke-test back-end);
- :class:`~repro.sensei.backends.writer.PosthocIO` — particle output
  for post hoc visualization.
"""

from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.backends.histogram import HistogramAnalysis
from repro.sensei.backends.stats import ColumnStats, StatisticsAnalysis
from repro.sensei.backends.writer import PosthocIO

__all__ = [
    "BinningAnalysis",
    "HistogramAnalysis",
    "StatisticsAnalysis",
    "ColumnStats",
    "PosthocIO",
]
