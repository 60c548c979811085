"""Every scoped process-wide switch restores its previous value and nests.

Each case is ``(enter, read, outer, inner)``: inside ``enter(value)`` the
switch reads ``value``, and on exit it reads what it read before — also when
the body raises.
"""

from __future__ import annotations

import pytest

from repro.core.fastpath import fastpath_disabled, fastpath_enabled
from repro.experiments import runner
from repro.experiments.runner import use_estimators, use_model_store, use_sharding
from repro.fault.plan import FaultPlan, default_fault_plan, use_fault_plan
from repro.obs.metrics import MetricsRegistry, default_metrics, use_default_metrics
from repro.persist.store import ModelStore


def _extra_labels() -> tuple[str, ...]:
    return tuple(spec.label for spec in runner.extra_estimator_specs())


SWITCHES = {
    "use_default_metrics": lambda tmp: (
        use_default_metrics, default_metrics, MetricsRegistry(), MetricsRegistry()
    ),
    "use_fault_plan": lambda tmp: (
        use_fault_plan, default_fault_plan, FaultPlan(seed=1), FaultPlan(seed=2)
    ),
    "fastpath_disabled": lambda tmp: (
        lambda value: fastpath_disabled(), fastpath_enabled, False, False
    ),
    "use_model_store": lambda tmp: (
        use_model_store,
        lambda: runner._ACTIVE_STORE.value[0],
        ModelStore(tmp / "outer"),
        ModelStore(tmp / "inner"),
    ),
    "use_sharding": lambda tmp: (
        lambda value: use_sharding(*value),
        lambda: runner._ACTIVE_SHARDING.value,
        (2, "hash"),
        (3, "range"),
    ),
    "use_estimators": lambda tmp: (
        use_estimators, _extra_labels, ("grid",), ("kde", "ensemble")
    ),
}


@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_switch_restores_on_raise_and_nests(name, tmp_path) -> None:
    enter, read, outer, inner = SWITCHES[name](tmp_path)
    before = read()
    assert before != outer

    with pytest.raises(RuntimeError):
        with enter(outer):
            assert read() == outer
            raise RuntimeError("body failed")
    assert read() == before

    with enter(outer):
        with enter(inner):
            assert read() == inner
        assert read() == outer
    assert read() == before
