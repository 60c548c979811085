"""The fault-injection substrate: scheduling, determinism, inertness."""

from __future__ import annotations

import copy
import time

import pytest

from repro.core.errors import InjectedFault, InvalidParameterError
from repro.fault.plan import (
    NULL_PLAN,
    FaultPlan,
    default_fault_plan,
    inject,
    mutate_bytes,
    random_plan,
    set_default_fault_plan,
    use_fault_plan,
)


class TestScheduling:
    def test_every_and_after_compose(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="raise", after=2, every=3)
        fired = []
        for hit in range(1, 12):
            try:
                plan.inject("p")
            except InjectedFault:
                fired.append(hit)
        assert fired == [3, 6, 9]

    def test_at_pins_exact_hits(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="raise", at=(2, 5))
        fired = []
        for hit in range(1, 8):
            try:
                plan.inject("p")
            except InjectedFault:
                fired.append(hit)
        assert fired == [2, 5]

    def test_limit_caps_firings(self) -> None:
        plan = FaultPlan()
        rule = plan.arm("p", action="raise", limit=2)
        fired = 0
        for _ in range(10):
            try:
                plan.inject("p")
            except InjectedFault:
                fired += 1
        assert fired == 2
        assert rule.fired == 2

    def test_glob_pattern_matches_points(self) -> None:
        plan = FaultPlan()
        plan.arm("persist.*", action="raise")
        with pytest.raises(InjectedFault):
            plan.inject("persist.publish.write")
        plan.inject("serve.estimate")  # no match: silent

    def test_probabilistic_rules_are_seed_deterministic(self) -> None:
        def firings(seed: int) -> list[int]:
            plan = FaultPlan(seed=seed)
            plan.arm("p", action="raise", probability=0.3)
            out = []
            for hit in range(1, 101):
                try:
                    plan.inject("p")
                except InjectedFault:
                    out.append(hit)
            return out

        first = firings(7)
        assert firings(7) == first
        assert firings(8) != first
        assert 10 < len(first) < 60  # roughly the armed rate

    def test_per_point_rngs_are_independent(self) -> None:
        plan = FaultPlan(seed=1)
        plan.arm("a", action="raise", probability=0.5)
        plan.arm("b", action="raise", probability=0.5)
        a_fired, b_fired = [], []
        for hit in range(1, 41):
            for point, out in (("a", a_fired), ("b", b_fired)):
                try:
                    plan.inject(point)
                except InjectedFault:
                    out.append(hit)
        assert a_fired != b_fired  # distinct per-point streams

    def test_first_matching_rule_wins(self) -> None:
        plan = FaultPlan()
        first = plan.arm("persist.*", action="torn", fraction=0.5)
        second = plan.arm("persist.publish.write", action="raise")
        assert plan.mutate_bytes("persist.publish.write", bytes(8)) == bytes(4)
        assert (first.fired, second.fired) == (1, 0)

    def test_deterministic_rules_leave_the_draw_stream_alone(self) -> None:
        # A counter-scheduled rule that is not due takes no draw from the
        # point's RNG, so arming it ahead of a probabilistic rule does not
        # move that rule's firings.
        def firings(with_counter_rule: bool) -> list[int]:
            plan = FaultPlan(seed=4)
            if with_counter_rule:
                plan.arm("p", action="raise", after=1000)
            plan.arm("p", action="raise", probability=0.4)
            out = []
            for hit in range(1, 61):
                try:
                    plan.inject("p")
                except InjectedFault:
                    out.append(hit)
            return out

        alone = firings(False)
        assert alone and firings(True) == alone

    def test_reset_counters_replays_the_schedule(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="raise", at=(2,))
        plan.inject("p")
        with pytest.raises(InjectedFault):
            plan.inject("p")
        plan.reset_counters()
        plan.inject("p")
        with pytest.raises(InjectedFault):
            plan.inject("p")


class TestActions:
    def test_raise_carries_point_name(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="raise", message="boom")
        with pytest.raises(InjectedFault) as excinfo:
            plan.inject("p")
        assert excinfo.value.point == "p"

    def test_torn_truncates_payload(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="torn", fraction=0.25)
        data = bytes(range(100))
        torn = plan.mutate_bytes("p", data)
        assert torn == data[:25]

    def test_bitflip_flips_exactly_n_bits(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="bitflip", flips=3)
        data = bytes(64)
        flipped = plan.mutate_bytes("p", data)
        assert len(flipped) == len(data)
        diff_bits = sum(bin(a ^ b).count("1") for a, b in zip(data, flipped))
        assert 1 <= diff_bits <= 3  # positions may collide

    def test_hang_sleeps_then_returns(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="hang", delay=0.05)
        start = time.perf_counter()
        plan.inject("p")  # a hang delays the caller but does not fail it
        assert time.perf_counter() - start >= 0.05

    def test_raise_fails_a_byte_write(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="raise")
        with pytest.raises(InjectedFault):
            plan.mutate_bytes("p", b"payload")

    def test_tear_keeps_at_least_one_byte(self) -> None:
        plan = FaultPlan()
        plan.arm("p", action="torn", fraction=0.0)
        assert plan.mutate_bytes("p", b"") == b""  # nothing to tear
        assert plan.mutate_bytes("p", b"abcd") == b"a"

    def test_unknown_action_rejected(self) -> None:
        for action in ("explode", "skew"):
            with pytest.raises(InvalidParameterError):
                FaultPlan().arm("p", action=action)

    def test_unknown_option_rejected_as_typed_error(self) -> None:
        plan = FaultPlan()
        with pytest.raises(InvalidParameterError, match="unknown fault rule option"):
            plan.arm("p", action="raise", atfer=2)  # typo'd keyword
        assert not plan.rules  # nothing was armed

    @pytest.mark.parametrize(
        "option", [{"every": 0}, {"probability": 1.5}, {"fraction": 1.0}],
        ids=["every", "probability", "fraction"],
    )
    def test_out_of_range_option_rejected(self, option) -> None:
        plan = FaultPlan()
        (name,) = option
        with pytest.raises(InvalidParameterError, match=name):
            plan.arm("p", action="raise", **option)
        assert not plan.rules  # nothing was armed

    def test_scalar_at_is_coerced(self) -> None:
        plan = FaultPlan()
        rule = plan.arm("p", action="raise", at=2)
        assert rule.at == (2,)
        plan.inject("p")
        with pytest.raises(InjectedFault):
            plan.inject("p")

    def test_malformed_at_rejected_as_typed_error(self) -> None:
        with pytest.raises(InvalidParameterError, match="at must be"):
            FaultPlan().arm("p", action="raise", at=object())
        with pytest.raises(InvalidParameterError):
            FaultPlan().arm("p", action="raise", at=("x", "y"))


class TestDefaultPlan:
    # These run with whatever plan the session armed (the CI fault-injection
    # leg installs a random one), so they assert *relative* to the ambient
    # default instead of assuming process-wide inertness.

    def test_null_plan_is_inert(self) -> None:
        with use_fault_plan(None):
            assert default_fault_plan() is NULL_PLAN
            inject("any.point")  # no-op
            assert mutate_bytes("any.point", b"abc") == b"abc"

    def test_null_plan_refuses_arming(self) -> None:
        with pytest.raises(InvalidParameterError):
            NULL_PLAN.arm("p")

    def test_use_fault_plan_scopes_and_restores(self) -> None:
        ambient = default_fault_plan()
        plan = FaultPlan()
        plan.arm("p", action="raise")
        with use_fault_plan(plan):
            assert default_fault_plan() is plan
            with pytest.raises(InjectedFault):
                inject("p")
        assert default_fault_plan() is ambient

    def test_set_default_returns_previous(self) -> None:
        ambient = default_fault_plan()
        plan = FaultPlan()
        previous = set_default_fault_plan(plan)
        try:
            assert previous is ambient
            assert default_fault_plan() is plan
        finally:
            set_default_fault_plan(previous)
        assert default_fault_plan() is ambient


class TestTravelSemantics:
    def test_deepcopy_returns_same_plan(self) -> None:
        plan = FaultPlan()
        assert copy.deepcopy(plan) is plan


class TestRandomPlan:
    def test_covers_recoverable_points(self) -> None:
        plan = random_plan(0.01, seed=5)
        patterns = {rule.pattern for rule in plan.rules}
        assert "persist.publish.write" in patterns
        assert "shard.task" in patterns

    def test_arms_each_point_with_its_recovery_action(self) -> None:
        plan = random_plan(0.02, seed=5)
        rules = {rule.pattern: rule for rule in plan.rules}
        assert rules["persist.publish.write"].action == "bitflip"
        assert rules["shard.task"].action == "raise"
        assert all(rule.probability == 0.02 for rule in plan.rules)
        assert plan.seed == 5

    def test_custom_points_default_to_raise(self) -> None:
        (rule,) = random_plan(0.5, points=("x.y",)).rules
        assert (rule.pattern, rule.action, rule.probability) == ("x.y", "raise", 0.5)

    def test_describe_reports_accounting(self) -> None:
        plan = FaultPlan(seed=2)
        plan.arm("p", action="raise", at=(1,))
        with pytest.raises(InjectedFault):
            plan.inject("p")
        described = plan.describe()
        assert described["hits"] == {"p": 1}
        assert described["fired"] == {"p": 1}
