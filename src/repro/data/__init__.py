"""Synthetic dataset and drifting-stream generators."""

from repro.data.generators import (
    clustered_table,
    correlated_table,
    gaussian_mixture_density,
    gaussian_mixture_table,
    mixed_table,
    sample_gaussian_mixture,
    uniform_table,
    zipf_table,
)
from repro.data.streams import (
    DataStream,
    gradual_drift_stream,
    stationary_stream,
    sudden_drift_stream,
)

__all__ = [
    "uniform_table",
    "gaussian_mixture_table",
    "zipf_table",
    "correlated_table",
    "clustered_table",
    "mixed_table",
    "gaussian_mixture_density",
    "sample_gaussian_mixture",
    "DataStream",
    "stationary_stream",
    "sudden_drift_stream",
    "gradual_drift_stream",
]
