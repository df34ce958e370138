"""Chaos equivalence: a faulted run's survivors are bit-identical.

The acceptance property of the resilience plane: inject worker crashes,
worker exceptions and store corruption into a batch, and every instance
that completes must match the fault-free run bit for bit — retries
re-enter the same RNG streams because faults fire *before* the simulation
touches its stream.
"""

import numpy as np
import pytest

from repro.core.parallel import (
    InstanceSpec,
    run_instances,
    supervise_instances,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.cas import ContentStore
from repro.store.keys import instance_key
from repro.store.memo import outcome_from_payload, outcome_payload

FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)


def specs(n=3, days=8):
    return [
        InstanceSpec(region_code="VT", params={"TAU": 0.25, "SYMP": 0.65},
                     n_days=days, scale=1e-3, seed=100 + 17 * i,
                     label=f"VT-i{i}", asset_seed=0)
        for i in range(n)
    ]


def assert_outcomes_identical(clean, chaotic):
    assert clean.spec == chaotic.spec
    assert np.array_equal(clean.confirmed, chaotic.confirmed)
    assert clean.attack_rate == chaotic.attack_rate
    assert clean.transitions == chaotic.transitions


@pytest.fixture(scope="module")
def baseline():
    return run_instances(specs(), parallel=False,
                         registry=MetricsRegistry())


def test_serial_injected_exceptions_recover_bit_identical(baseline):
    plan = FaultPlan.parse(["worker.exception:times=1"], seed=0)
    reg = MetricsRegistry()
    res = supervise_instances(specs(), parallel=False, retry=FAST_RETRY,
                              faults=plan, registry=reg)
    # The three specs are one batch group: its first fault fails the
    # group's attempt, and the group retries once, as a unit.
    assert res.ok and res.retries == 1
    for clean, chaotic in zip(baseline, res.results):
        assert_outcomes_identical(clean, chaotic)
    assert reg.value("faults.worker.exception") == 1


def test_serial_crash_rule_raises_in_process(baseline):
    """worker.crash downgrades to a transient raise without a pool."""
    plan = FaultPlan.parse(["worker.crash:times=1,match=i1"], seed=0)
    res = supervise_instances(specs(), parallel=False, retry=FAST_RETRY,
                              faults=plan, registry=MetricsRegistry())
    assert res.ok
    for clean, chaotic in zip(baseline, res.results):
        assert_outcomes_identical(clean, chaotic)


def test_corrupt_store_roundtrip_recovers_bit_identical(baseline, tmp_path):
    plan = FaultPlan.parse(["cas.corrupt:times=1"], seed=0)
    store = ContentStore(tmp_path, faults=plan)
    keys = [instance_key(s) for s in specs()]
    for key, outcome in zip(keys, baseline):
        store.put(key, outcome_payload(outcome))  # every first put corrupt
    assert store.metrics.value("faults.cas.corrupt") == len(keys)
    for spec, key, clean in zip(specs(), keys, baseline):
        assert store.get(key) is None  # detected, quarantined, missed
        store.put(key, outcome_payload(clean))  # recompute-and-rewrite
        got = store.get(key)
        assert got is not None
        assert_outcomes_identical(clean, outcome_from_payload(spec, got))


def test_pooled_worker_crash_recovers_bit_identical(baseline):
    """A hard worker death (os._exit) rebuilds the pool and salvages."""
    plan = FaultPlan.parse(["worker.crash:times=1,match=i0"], seed=0)
    reg = MetricsRegistry()
    res = supervise_instances(specs(), max_workers=2, parallel=True,
                              retry=FAST_RETRY, faults=plan, registry=reg)
    assert res.ok
    assert res.pool_rebuilds >= 1
    for clean, chaotic in zip(baseline, res.results):
        assert_outcomes_identical(clean, chaotic)


def test_slow_fault_changes_nothing_but_time(baseline):
    plan = FaultPlan.parse(["worker.slow:delay=0.01"], seed=0)
    reg = MetricsRegistry()
    res = supervise_instances(specs(), parallel=False, retry=FAST_RETRY,
                              faults=plan, registry=reg)
    assert res.ok and res.retries == 0
    for clean, chaotic in zip(baseline, res.results):
        assert_outcomes_identical(clean, chaotic)
    assert reg.value("faults.worker.slow") == len(specs())


def test_run_instances_with_retry_keeps_historical_contract(baseline):
    """The wrapper still returns a plain list under faults + retries."""
    plan = FaultPlan.parse(["worker.exception:times=1,match=i2"], seed=0)
    out = run_instances(specs(), parallel=False, retry=FAST_RETRY,
                        faults=plan, registry=MetricsRegistry())
    assert isinstance(out, list) and len(out) == len(specs())
    for clean, chaotic in zip(baseline, out):
        assert_outcomes_identical(clean, chaotic)
