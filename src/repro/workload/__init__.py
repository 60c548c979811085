"""Query model and workload generators."""

from repro.workload.generators import (
    DataCenteredWorkload,
    SkewedWorkload,
    TypedWorkload,
    UniformWorkload,
    WorkloadGenerator,
)
from repro.workload.queries import (
    CompiledQueries,
    Interval,
    LoweredQueries,
    RangeQuery,
    SetMembership,
    StringPrefix,
    TypedQuery,
    compile_queries,
)

__all__ = [
    "Interval",
    "SetMembership",
    "StringPrefix",
    "RangeQuery",
    "TypedQuery",
    "CompiledQueries",
    "LoweredQueries",
    "compile_queries",
    "WorkloadGenerator",
    "UniformWorkload",
    "DataCenteredWorkload",
    "SkewedWorkload",
    "TypedWorkload",
]
