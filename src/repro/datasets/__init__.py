"""Workload generators standing in for the paper's evaluation datasets.

The paper evaluates on four real datasets (CSMetrics, FIFA rankings, the
Blue Nile diamond catalog, US DoT flight on-time records) plus the
classic Börzsönyi synthetic families.  None of the real files can be
fetched offline, so each generator here synthesises a dataset with the
same schema, attribute correlations, and reference scoring function —
the properties the stability algorithms actually exercise; each
generator's docstring says what it substitutes.
"""

from repro.datasets.synthetic import (
    anticorrelated_dataset,
    correlated_dataset,
    independent_dataset,
    synthetic_dataset,
)
from repro.datasets.csmetrics import csmetrics_dataset, CSMETRICS_DEFAULT_ALPHA
from repro.datasets.fifa import fifa_dataset, FIFA_REFERENCE_WEIGHTS
from repro.datasets.bluenile import bluenile_dataset, BLUENILE_ATTRIBUTES
from repro.datasets.dot import dot_dataset, DOT_ATTRIBUTES

__all__ = [
    "synthetic_dataset",
    "independent_dataset",
    "correlated_dataset",
    "anticorrelated_dataset",
    "csmetrics_dataset",
    "CSMETRICS_DEFAULT_ALPHA",
    "fifa_dataset",
    "FIFA_REFERENCE_WEIGHTS",
    "bluenile_dataset",
    "BLUENILE_ATTRIBUTES",
    "dot_dataset",
    "DOT_ATTRIBUTES",
]
