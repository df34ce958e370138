"""Generators, correctness checks and the one command, at ``--smoke``
sizes (seconds, not minutes)."""

import dataclasses
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import metricdefs
from workloads.base import mismatches

E2E = Path(__file__).resolve().parents[1]
BATCH = ("national_solo", "night_replicates", "preempted_resume")


def make(name, seed, tmp_path):
    cls = importlib.import_module(f"workloads.{name}").WORKLOAD
    return cls(seed, tmp_path, smoke=True)


def specs_of(inputs):
    return inputs[0] if isinstance(inputs, tuple) else inputs


@pytest.mark.parametrize("name", BATCH)
def test_rounds_are_deterministic_in_the_seed(name, tmp_path):
    a, b, c = (make(name, s, tmp_path) for s in (7, 7, 8))
    for index in range(3):
        assert a.make_round(index) == b.make_round(index)
    assert specs_of(a.make_round(0)) != specs_of(c.make_round(0))


@pytest.mark.parametrize("name", BATCH)
def test_rounds_have_equal_composition(name, tmp_path):
    """Seeds differ round to round; the work does not."""
    wl = make(name, 3, tmp_path)

    def shape(index):
        return [(s.region_code, tuple(sorted(s.params.items())), s.n_days,
                 s.scale, s.asset_seed)
                for s in specs_of(wl.make_round(index))]

    first = shape(0)
    assert len(first) == wl.ops_per_round
    seeds = set()
    for index in range(4):
        assert shape(index) == first
        seeds |= {s.seed for s in specs_of(wl.make_round(index))}
    assert len(seeds) == 4 * wl.ops_per_round


def test_service_rounds_are_deterministic_and_equally_composed(tmp_path):
    def rounds(seed):
        wl = make("service_mix", seed, tmp_path)
        # What setup() leaves behind, without starting a server.
        wl.completed = [wl._body(r, -1, j)
                        for j, r in enumerate(wl.regions)]
        return wl, [wl.make_round(i) for i in range(4)]

    wl, a = rounds(5)
    _, b = rounds(5)
    _, c = rounds(6)
    assert [[r.body for r in rnd] for rnd in a] == \
        [[r.body for r in rnd] for rnd in b]
    assert [r.body for r in a[0]] != [r.body for r in c[0]]
    seen = set()
    for rnd in a:
        kinds = [r.kind for r in rnd]
        assert (kinds.count("exec"), kinds.count("hit")) == \
            (wl.fresh, wl.repeats)
        fresh = [r.body["_tag"] for r in rnd if r.kind == "exec"]
        assert not seen & set(fresh)          # never seen before
        assert all(r.body["_tag"] in seen or r.body["_tag"].startswith("r-1")
                   for r in rnd if r.kind == "hit")  # completed earlier
        seen |= set(fresh)
    with pytest.raises(ValueError):
        wl.make_round(0)  # strictly in order


def test_tampered_payload_trips_the_check(tmp_path, monkeypatch):
    # setup() sets this knob; registering it here restores it afterwards.
    monkeypatch.setenv("REPRO_MAX_PRELOAD_ASSETS", "4")
    wl = make("national_solo", 1, tmp_path)
    wl.setup()
    specs = wl.make_round(0)
    outcomes = wl.run_round(specs)
    checked, bad = wl.check([(0.1, specs, outcomes)])
    assert (checked, bad) == (len(specs), [])

    tampered = list(outcomes)
    confirmed = tampered[1].confirmed.copy()
    confirmed[-1] += 1e-9
    tampered[1] = dataclasses.replace(tampered[1], confirmed=confirmed)
    _checked, bad = wl.check([(0.1, specs, tampered)])
    assert len(bad) == 1 and specs[1].label in bad[0]

    assert mismatches("x", outcomes[:1], outcomes) != []   # a lost result
    assert wl.failed_ops([outcomes[0], None]) == 1


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--seconds", "0.3",
         *args], capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


@pytest.mark.parametrize("name", list(metricdefs.WORKLOADS))
def test_one_command_reports_every_metric(name):
    result, stdout = run_cli("--workload", name, "--seed", "11")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m.name for m in metricdefs.END_TO_END]
    for m in metricdefs.END_TO_END:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit and got["value"] > 0
        assert f"{name}/{m.name}" in stdout  # printed by name, with unit

    traced, _ = run_cli("--workload", name, "--seed", "11", "--trace", "1")
    assert traced["correct"] is True
    assert list(traced["metrics"]) == [m.name for m in metricdefs.PER_LAYER]
    values = {k: v["value"] for k, v in traced["metrics"].items()}
    # Bypass predictions, stated as numbers.
    if name != "service_mix":
        assert all(v == 0 for k, v in values.items()
                   if k.startswith("service."))
    if name != "preempted_resume":
        assert values["checkpoint.written"] == 0
    if name == "national_solo":
        assert values["epihiper.batch.groups"] == 0
        assert values["store.memo.misses"] == 0
        assert values["epihiper.engine.run_s"] > 0
    if name == "night_replicates":
        assert values["epihiper.engine.run_s"] == 0
        assert values["epihiper.batch.groups"] > 0
        assert values["store.replay_hits_per_s"] > 0
    if name == "preempted_resume":
        assert values["checkpoint.resumed"] == 4
        assert values["checkpoint.ticks_reexecuted"] > 0
