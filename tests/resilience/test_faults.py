"""FaultPlan determinism, rule parsing and site validation."""

import pickle

import pytest

from repro.resilience import FAULT_SITES, FaultPlan, FaultRule, hash_uniform

pytestmark = pytest.mark.fast


def test_sites_cover_all_layers():
    assert set(FAULT_SITES) == {
        "worker.crash", "worker.exception", "worker.slow",
        "worker.crash_mid_run",
        "cas.corrupt", "transfer.fail", "ledger.torn", "node.fail",
    }


def test_rule_parse_roundtrip():
    r = FaultRule.parse("worker.crash:times=1,match=VA,p=0.5")
    assert r.site == "worker.crash"
    assert r.times == 1 and r.match == "VA" and r.probability == 0.5


def test_rule_parse_delay():
    r = FaultRule.parse("worker.slow:delay=0.2")
    assert r.delay_s == 0.2


def test_rule_parse_mttf():
    r = FaultRule.parse("node.fail:mttf=500,match=VA")
    assert r.site == "node.fail" and r.mttf_h == 500.0 and r.match == "VA"
    assert "node.fail:match=VA,mttf=500" in FaultPlan(rules=(r,)).describe()


def test_node_fail_requires_positive_mttf():
    with pytest.raises(ValueError, match="requires mttf"):
        FaultRule.parse("node.fail:p=0.5")
    for bad in ("0", "-3", "nan"):
        with pytest.raises(ValueError, match="mttf must be positive"):
            FaultRule.parse(f"node.fail:mttf={bad}")


def test_node_failure_draws_are_exponential_at_rate_nodes_over_mttf():
    plan = FaultPlan.parse(["node.fail:mttf=10"], seed=3)
    inf = float("inf")
    draws = [plan.node_failure_at(f"job{i}", 0, 4, inf) for i in range(4000)]
    mean_s = sum(draws) / len(draws)
    assert mean_s == pytest.approx(10 * 3600 / 4, rel=0.05)
    # Keyed: the same (key, attempt) always draws the same time; another
    # attempt or another plan seed draws afresh.
    assert plan.node_failure_at("job0", 0, 4, inf) == draws[0]
    assert plan.node_failure_at("job0", 1, 4, inf) != draws[0]
    other = FaultPlan.parse(["node.fail:mttf=10"], seed=4)
    assert other.node_failure_at("job0", 0, 4, inf) != draws[0]
    # A job that outlives its draw is not killed; no rule never kills.
    assert plan.node_failure_at("job0", 0, 4, draws[0]) is None
    assert FaultPlan().node_failure_at("job0", 0, 4, inf) is None


def test_unknown_site_rejected():
    with pytest.raises(ValueError, match="unknown fault site"):
        FaultRule.parse("worker.meltdown")


def test_bad_option_rejected():
    with pytest.raises(ValueError):
        FaultRule.parse("worker.crash:oops=1")
    with pytest.raises(ValueError):
        FaultRule.parse("worker.crash:times")


def test_validation_bounds():
    with pytest.raises(ValueError):
        FaultRule("worker.crash", probability=1.5)
    with pytest.raises(ValueError):
        FaultRule("worker.crash", times=0)
    with pytest.raises(ValueError):
        FaultRule("worker.slow", delay_s=-1.0)


def test_times_limits_attempts():
    plan = FaultPlan.parse(["worker.exception:times=2"], seed=0)
    assert plan.fires("worker.exception", "k", 0)
    assert plan.fires("worker.exception", "k", 1)
    assert not plan.fires("worker.exception", "k", 2)


def test_match_restricts_keys():
    plan = FaultPlan.parse(["worker.exception:match=VA"], seed=0)
    assert plan.fires("worker.exception", "VA:17")
    assert not plan.fires("worker.exception", "VT:17")


def test_empty_plan_never_fires():
    plan = FaultPlan()
    for site in FAULT_SITES:
        assert not plan.fires(site, "anything", 0)
        assert plan.delay(site, "anything", 0) == 0.0


def test_firing_is_deterministic_and_seed_dependent():
    plan_a = FaultPlan.parse(["worker.crash:p=0.5"], seed=1)
    plan_b = FaultPlan.parse(["worker.crash:p=0.5"], seed=2)
    keys = [f"k{i}" for i in range(200)]
    draws_a = [plan_a.fires("worker.crash", k) for k in keys]
    assert draws_a == [plan_a.fires("worker.crash", k) for k in keys]
    assert draws_a != [plan_b.fires("worker.crash", k) for k in keys]
    # p=0.5 over 200 keys should fire a plausible fraction of the time.
    assert 60 <= sum(draws_a) <= 140


def test_firing_independent_of_call_order():
    """Stateless by construction: no hidden stream to advance."""
    plan = FaultPlan.parse(["cas.corrupt:p=0.4"], seed=9)
    forward = [plan.fires("cas.corrupt", f"k{i}") for i in range(50)]
    backward = [plan.fires("cas.corrupt", f"k{i}")
                for i in reversed(range(50))]
    assert forward == list(reversed(backward))


def test_plan_pickles_to_workers():
    plan = FaultPlan.parse(["worker.crash:times=1", "worker.slow:delay=0.1"],
                           seed=3)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    assert clone.fires("worker.crash", "x", 0) == plan.fires(
        "worker.crash", "x", 0)


def test_delay_sums_matching_slow_rules():
    plan = FaultPlan.parse(["worker.slow:delay=0.1",
                            "worker.slow:delay=0.2,match=VA"], seed=0)
    assert plan.delay("worker.slow", "VT:0") == pytest.approx(0.1)
    assert plan.delay("worker.slow", "VA:0") == pytest.approx(0.3)


def test_describe_mentions_every_rule():
    plan = FaultPlan.parse(["worker.crash:times=1", "cas.corrupt:p=0.5"],
                           seed=4)
    text = plan.describe()
    assert "worker.crash" in text and "cas.corrupt" in text
    assert "seed 4" in text
    assert FaultPlan().describe() == "no faults"


def test_hash_uniform_range_and_determinism():
    draws = [hash_uniform(0, "a", i) for i in range(100)]
    assert all(0.0 <= d < 1.0 for d in draws)
    assert draws == [hash_uniform(0, "a", i) for i in range(100)]
    assert hash_uniform(0, "a", 1) != hash_uniform(1, "a", 1)
