"""Contract tests for the probe-scheduling policies of
:mod:`repro.topk.quick_combine`.

``tsa-qc`` plugs :class:`QuickCombinePolicy` into its phase-1
interleave (plain ``tsa`` uses :class:`RoundRobinPolicy`); these pin
what that path relies on but only exercises indirectly: the policy
prefers the stream whose bound rises fastest per weighted probe,
starves no active stream and prioritises unexplored ones.
"""

import pytest

from repro.topk.quick_combine import QuickCombinePolicy, RoundRobinPolicy


class TestQuickCombine:
    def test_prefers_faster_growing_stream(self):
        policy = QuickCombinePolicy((0.5, 0.5))
        for i in range(4):
            policy.observe(0, i * 10.0)  # fast riser
            policy.observe(1, i * 0.1)  # slow riser
        assert policy.choose((True, True)) == 0

    def test_weights_scale_preference(self):
        policy = QuickCombinePolicy((0.01, 0.99))
        for i in range(4):
            policy.observe(0, i * 1.0)
            policy.observe(1, i * 1.0)
        assert policy.choose((True, True)) == 1

    def test_unobserved_streams_prioritised(self):
        policy = QuickCombinePolicy((0.5, 0.5))
        for i in range(4):
            policy.observe(0, float(i))
        assert policy.choose((True, True)) == 1

    def test_skips_inactive(self):
        policy = QuickCombinePolicy((0.5, 0.5))
        assert policy.choose((False, True)) == 1
        with pytest.raises(ValueError):
            policy.choose((False, False))

    def test_validation(self):
        with pytest.raises(ValueError):
            QuickCombinePolicy(())
        with pytest.raises(ValueError):
            QuickCombinePolicy((0.5, -0.1))
        with pytest.raises(ValueError):
            QuickCombinePolicy((1.0,), window=1)


class TestRoundRobin:
    def test_alternates(self):
        policy = RoundRobinPolicy(2)
        picks = [policy.choose((True, True)) for _ in range(4)]
        assert picks == [0, 1, 0, 1]

    def test_skips_inactive(self):
        policy = RoundRobinPolicy(2)
        assert policy.choose((False, True)) == 1
        assert policy.choose((False, True)) == 1

    def test_no_active_raises(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy(2).choose((False, False))


class TestQuickCombinePolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            QuickCombinePolicy(())
        with pytest.raises(ValueError):
            QuickCombinePolicy((0.5, -0.1))
        with pytest.raises(ValueError):
            QuickCombinePolicy((0.5, 0.5), window=1)

    def test_rate_is_inf_until_two_observations(self):
        policy = QuickCombinePolicy((1.0, 1.0))
        assert policy.rate(0) == float("inf")
        policy.observe(0, 1.0)
        assert policy.rate(0) == float("inf")
        policy.observe(0, 3.0)
        assert policy.rate(0) == pytest.approx(2.0)

    def test_rate_windows_old_history_out(self):
        policy = QuickCombinePolicy((1.0,), window=3)
        for value in (0.0, 100.0, 100.0, 100.0):
            policy.observe(0, value)
        # the 0.0 observation fell out of the window: rate is flat now
        assert policy.rate(0) == pytest.approx(0.0)

    def test_round_robin_fallback_on_equal_rates_starves_nobody(self):
        policy = QuickCombinePolicy((0.5, 0.5, 0.5))
        for stream in range(3):
            for i in range(4):
                policy.observe(stream, float(i))
        chosen = [policy.choose((True, True, True)) for _ in range(9)]
        assert set(chosen) == {0, 1, 2}, f"starved a stream: {chosen}"

    def test_choose_requires_an_active_stream(self):
        policy = QuickCombinePolicy((0.5, 0.5))
        with pytest.raises(ValueError):
            policy.choose((False, False))

    def test_inactive_streams_never_chosen(self):
        policy = QuickCombinePolicy((0.5, 0.5))
        for i in range(4):
            policy.observe(0, i * 10.0)
            policy.observe(1, i * 0.1)
        assert policy.choose((False, True)) == 1


class TestRoundRobinPolicy:
    def test_strict_alternation(self):
        policy = RoundRobinPolicy(2)
        assert [policy.choose((True, True)) for _ in range(4)] == [0, 1, 0, 1]

    def test_skips_inactive_streams(self):
        policy = RoundRobinPolicy(3)
        assert policy.choose((False, True, True)) == 1
        assert policy.choose((False, True, True)) == 2
        assert policy.choose((False, True, True)) == 1

    def test_observe_is_interface_noop(self):
        policy = RoundRobinPolicy(2)
        policy.observe(0, 123.0)
        assert policy.choose((True, True)) == 0

    def test_no_active_stream_raises(self):
        with pytest.raises(ValueError):
            RoundRobinPolicy(2).choose((False, False))
