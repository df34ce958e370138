"""Snapshot/restore format: bit-identical resume, strict validation.

The format contract: snapshot at tick t, apply onto a *freshly prepared*
simulation of the same instance spec, run to T — every output byte
(transition log, census counts, RNG stream) equals an uninterrupted
run's.  Anything that cannot hold that contract (format bump, different
instance, changed intervention stack) must raise
:class:`~repro.checkpoint.CheckpointError`, never misapply.
"""

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointError,
    restore_simulation,
    snapshot_simulation,
)
from repro.checkpoint.format import FORMAT_VERSION, META_KEY
from repro.core.runner import load_region_assets, prepare_instance
from repro.epihiper.batch import BatchedSimulation

#: Interventions with mutable closure state (SH suppression handles,
#: timed releases, VHI compliance arrays, D1CT trackers) — the hard part
#: of the snapshot.
PARAMS = {"TAU": 0.3, "SYMP": 0.65, "SH_COMPLIANCE": 0.6,
          "VHI_COMPLIANCE": 0.5, "tracing_compliance": 0.4,
          "lockdown_days": 4}
DAYS = 26
SNAP_TICK = 12


@pytest.fixture(scope="module")
def assets():
    return load_region_assets("VT", 1e-3, 0)


def fresh_sim(assets, params=PARAMS, seed=7):
    sim, _model = prepare_instance(assets, params, seed=seed)
    BatchedSimulation([sim]).begin()
    return sim


def run_to(sim, tick):
    """Step ``sim`` to ``tick`` on a one-lane driver (the lane holds all
    the state, so a driver per call resumes where the last one stopped)."""
    engine = BatchedSimulation([sim])
    while sim.tick < tick:
        engine.step()
    return sim


def result_fingerprint(sim):
    engine = BatchedSimulation([sim])
    engine.flush(0)
    [result] = engine.finish()
    log = result.log
    return {
        "tick": log.tick.tobytes(),
        "pid": log.pid.tobytes(),
        "state": log.state.tobytes(),
        "infector": log.infector.tobytes(),
        "rng": repr(sim.rng.bit_generator.state),
    }


@pytest.fixture(scope="module")
def uninterrupted(assets):
    sim = run_to(fresh_sim(assets), DAYS)
    return result_fingerprint(sim)


@pytest.fixture(scope="module")
def snapshot(assets):
    sim = run_to(fresh_sim(assets), SNAP_TICK)
    return snapshot_simulation(sim)


class TestRoundTrip:
    def test_resume_is_bit_identical(self, assets, snapshot, uninterrupted):
        sim = fresh_sim(assets)
        tick = restore_simulation(sim, snapshot)
        assert tick == SNAP_TICK
        run_to(sim, DAYS)
        assert result_fingerprint(sim) == uninterrupted

    def test_payload_is_cas_shaped(self, snapshot):
        """Plain numeric ndarrays only: the CAS digest hashes raw bytes."""
        for name, arr in snapshot.items():
            assert isinstance(arr, np.ndarray), name
            assert arr.dtype != object, name

    def test_snapshot_is_a_frozen_copy(self, assets):
        """The simulation mutates in place; the payload must not follow."""
        sim = run_to(fresh_sim(assets), SNAP_TICK)
        snap = snapshot_simulation(sim)
        frozen = {k: v.copy() for k, v in snap.items()}
        run_to(sim, SNAP_TICK + 6)
        for name, arr in snap.items():
            assert np.array_equal(arr, frozen[name]), name

    def test_restore_twice_from_same_snapshot(self, assets, snapshot,
                                              uninterrupted):
        """A snapshot is reusable: every restore starts the same stream."""
        for _ in range(2):
            sim = fresh_sim(assets)
            restore_simulation(sim, snapshot)
            run_to(sim, DAYS)
            assert result_fingerprint(sim) == uninterrupted


class TestValidation:
    def tampered(self, snapshot, **meta_updates):
        import json

        payload = dict(snapshot)
        meta = json.loads(bytes(payload[META_KEY]))
        meta.update(meta_updates)
        blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        payload[META_KEY] = np.frombuffer(blob, dtype=np.uint8).copy()
        return payload

    def test_version_bump_is_invalid(self, assets, snapshot):
        bad = self.tampered(snapshot, version=FORMAT_VERSION + 1)
        with pytest.raises(CheckpointError, match="format"):
            restore_simulation(fresh_sim(assets), bad)

    def test_missing_meta_is_invalid(self, assets, snapshot):
        payload = {k: v for k, v in snapshot.items() if k != META_KEY}
        with pytest.raises(CheckpointError, match="meta"):
            restore_simulation(fresh_sim(assets), payload)

    def test_other_instance_is_invalid(self, snapshot):
        other = load_region_assets("RI", 1e-3, 0)
        with pytest.raises(CheckpointError, match="another instance"):
            restore_simulation(fresh_sim(other), snapshot)

    def test_changed_intervention_stack_is_invalid(self, assets, snapshot):
        bare = fresh_sim(assets, params={"TAU": 0.3, "SYMP": 0.65})
        with pytest.raises(CheckpointError, match="intervention"):
            restore_simulation(bare, snapshot)

    def test_failed_validation_leaves_no_partial_state(self, assets,
                                                       snapshot,
                                                       uninterrupted):
        """Validation precedes mutation: a rejected apply is harmless —
        but executors still rebuild after a *mid-apply* failure, so this
        only pins the validation-first ordering for meta mismatches."""
        sim = fresh_sim(assets)
        with pytest.raises(CheckpointError):
            restore_simulation(
                sim, self.tampered(snapshot, version=FORMAT_VERSION + 1))
        restore_simulation(sim, snapshot)
        run_to(sim, DAYS)
        assert result_fingerprint(sim) == uninterrupted
