"""Checkpointed resume is bit-identical — across kernels and widths.

The acceptance matrix: for every transmission kernel (dense and frontier
forced, and the engine's rule) and batch width K ∈ {1, 4, 16}, kill the
run at the start, middle
and last tick, resume from the newest checkpoint, and require the
surviving results to be **byte-identical** to an uninterrupted run's —
same payload bytes, same cache keys.  Plus the resume-plane accounting:
ticks-of-work-saved on the fan-out result, retry backoff that keeps
counting across resumes, and remaining-work-scaled attempt timeouts.
"""

import numpy as np
import pytest

from repro.checkpoint import CheckpointPlan
from repro.core.parallel import (
    InstanceSpec,
    run_instances,
    supervise_instances,
)
from repro.obs import MetricsRegistry
from repro.resilience import FaultPlan, RetryPolicy
from repro.store.keys import instance_key
from repro.store.memo import outcome_payload

from ..conftest import KERNELS

DAYS = 8
EVERY = 3
FAST_RETRY = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)

#: Crash positions: before the first checkpoint (resume degrades to a
#: tick-0 restart), mid-run, and the last tick before completion.
CRASH_TICKS = (1, 4, 7)


def specs(kernel, k):
    return [
        InstanceSpec(
            region_code="VT",
            params={"TAU": 0.3, "SYMP": 0.65, "SH_COMPLIANCE": 0.6},
            n_days=DAYS, scale=1e-3, seed=100 + 13 * i,
            label=f"eq-{kernel}-k{k}-i{i}", asset_seed=0)
        for i in range(k)
    ]


_clean_cache = {}


def clean_run(kernel, k):
    """The uninterrupted run (call it under ``kernel`` forced)."""
    if (kernel, k) not in _clean_cache:
        _clean_cache[(kernel, k)] = run_instances(
            specs(kernel, k), parallel=False, registry=MetricsRegistry())
    return _clean_cache[(kernel, k)]


def assert_payload_bytes_identical(clean, chaotic):
    """Byte-identical result payloads and identical CAS keys."""
    assert instance_key(clean.spec) == instance_key(chaotic.spec)
    a, b = outcome_payload(clean), outcome_payload(chaotic)
    assert sorted(a) == sorted(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].tobytes() == b[name].tobytes(), name


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("k", [1, 4, 16])
@pytest.mark.parametrize("crash_tick", CRASH_TICKS)
def test_crash_resume_bit_identical(tmp_path, kernel, k, crash_tick,
                                    force_kernel):
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    faults = FaultPlan.parse(
        [f"worker.crash_mid_run:tick={crash_tick},times=1"], seed=0)
    reg = MetricsRegistry()
    with force_kernel(kernel):
        res = supervise_instances(specs(kernel, k), parallel=False,
                                  retry=FAST_RETRY, faults=faults,
                                  registry=reg, checkpoint=plan)
        clean_results = clean_run(kernel, k)
    assert res.ok and res.retries == 1
    for clean, chaotic in zip(clean_results, res.results):
        assert_payload_bytes_identical(clean, chaotic)
    # The resume point is the newest checkpoint at or below the crash
    # tick; every lane of the shared loop resumes from the common tick.
    resume_tick = (crash_tick // EVERY) * EVERY
    assert res.ticks_saved == k * resume_tick
    assert reg.value("checkpoint.resumed") == (k if resume_tick else 0)


@pytest.mark.parametrize("k", [1, 4, 16])
def test_resumed_runs_agree_across_forced_kernels(tmp_path, k, force_kernel):
    """A crash-resumed run forced dense and one forced frontier store the
    same payload bytes."""
    out = {}
    for kernel in ("dense", "frontier"):
        plan = CheckpointPlan(store_root=str(tmp_path / kernel), every=EVERY)
        faults = FaultPlan.parse(["worker.crash_mid_run:tick=4,times=1"],
                                 seed=0)
        with force_kernel(kernel):
            res = supervise_instances(specs("forced", k), parallel=False,
                                      retry=FAST_RETRY, faults=faults,
                                      checkpoint=plan)
        assert res.ok and res.ticks_saved == k * EVERY
        out[kernel] = res.results
    for dense, frontier in zip(out["dense"], out["frontier"]):
        assert_payload_bytes_identical(dense, frontier)


@pytest.mark.parametrize("kernel", KERNELS)
def test_union_crash_resume_bit_identical(tmp_path, kernel, force_kernel):
    """Lone regions packed into a union driver: killed mid-run, resumed
    from each lane's own snapshot, every lane's payload is byte-identical
    to an uninterrupted run's.  VA runs alone; the four small regions
    fit within its persons, so they form one union."""
    regions = ("VA", "WY", "VT", "DC", "ND")
    union = [InstanceSpec(
        region_code=region,
        params={"TAU": 0.3, "SYMP": 0.65, "SH_COMPLIANCE": 0.6,
                **({"tracing_compliance": 0.8} if i == 1 else {})},
        n_days=DAYS, scale=1e-3, seed=300 + i,
        label=f"union-{kernel}-{region}", asset_seed=0)
        for i, region in enumerate(regions)]
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    faults = FaultPlan.parse(["worker.crash_mid_run:tick=4,times=1"],
                             seed=0)
    reg = MetricsRegistry()
    with force_kernel(kernel):
        res = supervise_instances(union, parallel=False, retry=FAST_RETRY,
                                  faults=faults, registry=reg,
                                  checkpoint=plan)
        clean = run_instances(union, parallel=False,
                              registry=MetricsRegistry())
    assert res.ok and res.retries == 2  # VA alone, then the union
    assert reg.value("batch.groups") == 1
    assert reg.value("batch.size") == 4
    assert reg.value("checkpoint.resumed") == len(regions)
    assert res.ticks_saved == len(regions) * EVERY
    for want, got in zip(clean, res.results):
        assert_payload_bytes_identical(want, got)


def test_checkpointing_off_matches_plain_execution(tmp_path):
    """every=0 leaves the tick loop byte-identical to no plan at all."""
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=0)
    reg = MetricsRegistry()
    res = supervise_instances(specs("auto", 4), parallel=False,
                              retry=FAST_RETRY, registry=reg,
                              checkpoint=plan)
    assert res.ok and res.ticks_saved == 0
    for clean, chaotic in zip(clean_run("auto", 4), res.results):
        assert_payload_bytes_identical(clean, chaotic)
    assert reg.value("checkpoint.written") == 0
    assert not (tmp_path / "ck").exists()


def test_fanout_summary_reports_ticks_saved(tmp_path):
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    faults = FaultPlan.parse(["worker.crash_mid_run:tick=7,times=1"],
                             seed=0)
    res = supervise_instances(specs("auto", 1), parallel=False,
                              retry=FAST_RETRY, faults=faults,
                              registry=MetricsRegistry(), checkpoint=plan)
    assert res.ticks_saved == 6
    assert "checkpoint resume saved 6 ticks of work" in res.summary()


def test_backoff_counts_across_resumes(tmp_path):
    """satellite: a resumed attempt that fails again backs off from the
    attempt counter, not from zero — the deterministic sequence is
    base * factor^0, base * factor^1, pinned here by the backoff total.
    A reset policy would sleep base twice (0.02), not base + 2*base."""
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    faults = FaultPlan.parse(["worker.crash_mid_run:tick=7,times=2"],
                             seed=0)
    retry = RetryPolicy(max_attempts=3, base_delay_s=0.01, factor=2.0,
                        jitter=0.0)
    reg = MetricsRegistry()
    res = supervise_instances(specs("auto", 1), parallel=False,
                              retry=retry, faults=faults, registry=reg,
                              checkpoint=plan)
    assert res.ok
    assert reg.value("retry.retries") == 2
    assert reg.value("retry.backoff_s") == pytest.approx(0.01 + 0.02)
    # Both resumes re-enter from tick 6 (the newest snapshot < 7), but
    # telemetry dies with a failed attempt: only the final, successful
    # attempt's counters are harvested, so one resume is visible.
    assert reg.value("checkpoint.resumed") == 1
    assert res.ticks_saved == 6
    for clean, chaotic in zip(clean_run("auto", 1), res.results):
        assert_payload_bytes_identical(clean, chaotic)


def test_repeated_crashes_exhaust_to_quarantine(tmp_path):
    """Resume does not mask a hard failure: a rule that outlives the
    retry budget still quarantines, with the chain left for post-mortem."""
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    faults = FaultPlan.parse(["worker.crash_mid_run:tick=7,times=3"],
                             seed=0)
    res = supervise_instances(specs("auto", 1), parallel=False,
                              retry=FAST_RETRY, faults=faults,
                              registry=MetricsRegistry(), checkpoint=plan)
    assert not res.ok
    assert len(res.quarantined) == 1
    assert res.quarantined[0].attempts == 3


def test_scaled_timeout_tracks_remaining_work(tmp_path):
    """Per-attempt timeouts shrink with the checkpointed progress: an
    instance resumed at tick 6 of 8 gets 2/8 of the base budget."""
    from repro.core.parallel import _scaled_timeout_of

    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    retry = RetryPolicy(max_attempts=3, timeout_s=80.0)
    timeout_of = _scaled_timeout_of(plan, retry)
    spec = specs("auto", 1)[0]
    assert timeout_of(spec, 0) == pytest.approx(80.0)
    manager = plan.manager(metrics=MetricsRegistry())
    manager.write(instance_key(spec, salt=plan.salt),
                  {"x": np.zeros(4)}, tick=6)
    assert timeout_of(spec, 1) == pytest.approx(80.0 * 2 / 8)
    assert timeout_of([spec], 1) == pytest.approx(80.0 * 2 / 8)
    assert _scaled_timeout_of(plan, RetryPolicy(max_attempts=3)) is None


def test_pooled_hard_crash_resumes_bit_identical(tmp_path):
    """The real failure mode end to end: a pool worker dies with
    ``os._exit`` mid-run, the pool is rebuilt, and the retry resumes
    from the snapshot the dead worker left behind."""
    plan = CheckpointPlan(store_root=str(tmp_path / "ck"), every=EVERY)
    faults = FaultPlan.parse(["worker.crash_mid_run:tick=7,times=1"],
                             seed=0)
    reg = MetricsRegistry()
    res = supervise_instances(specs("auto", 3), parallel=True,
                              max_workers=2, retry=FAST_RETRY,
                              faults=faults, registry=reg, checkpoint=plan)
    assert res.ok
    assert res.pool_rebuilds >= 1
    assert res.ticks_saved == 3 * 6
    for clean, chaotic in zip(clean_run("auto", 3), res.results):
        assert_payload_bytes_identical(clean, chaotic)
