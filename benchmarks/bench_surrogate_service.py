"""The surrogate fast path against a Zipf scenario mix.

Trains an emulator on a TAU sweep, then replays a Zipf-weighted request
mix (plus deliberately out-of-distribution scenarios) through an
in-process :class:`~repro.service.ScenarioService` with the surrogate
gate enabled.  Reports requests/s, the hit/fallback split, and p50/p99
request latency **by source** — the number the issue's acceptance bar
reads: surrogate-served answers must land an order of magnitude under
the exact path.  Also reports the held-out accuracy of the trained
model, honestly, next to the speedup it buys.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.parallel import InstanceSpec, run_instances
from repro.service import ScenarioService
from repro.store.cas import ContentStore
from repro.store.ledger import RunLedger
from repro.surrogate import (
    ModelRegistry,
    SurrogateGate,
    build_corpus,
    corpus_ledger_path,
    train_model,
)

N_TRAIN = 10  #: TAU sweep points in the training corpus
N_SCENARIOS = 12  #: distinct in-family scenarios in the request mix
N_OOD = 3  #: distinct out-of-distribution scenarios (other region)
N_REQUESTS = 120  #: total submissions across all threads
N_THREADS = 4
ZIPF_A = 1.5
N_DAYS = 10
RTOL = 0.5  #: generous gate so the tiny corpus can serve the family


def family_scenario(i):
    """In-family request: a TAU inside the trained sweep."""
    return InstanceSpec(
        region_code="VT", params={"TAU": 0.16 + 0.015 * i, "SYMP": 0.65},
        n_days=N_DAYS, scale=1e-3, seed=2000 + i, label=f"sur-bench-{i}",
        asset_seed=0)


def ood_scenario(i):
    """Out-of-distribution request: a region the corpus never saw."""
    return InstanceSpec(
        region_code="NH", params={"TAU": 0.20 + 0.01 * i, "SYMP": 0.65},
        n_days=N_DAYS, scale=1e-3, seed=3000 + i, label=f"sur-ood-{i}",
        asset_seed=0)


def zipf_mix(rng):
    """Scenario indices for the load: Zipf head + an OOD tail."""
    ranks = np.arange(1, N_SCENARIOS + 1, dtype=np.float64)
    weights = ranks ** -ZIPF_A
    weights /= weights.sum()
    mix = list(rng.choice(N_SCENARIOS, size=N_REQUESTS - N_OOD, p=weights))
    mix += [N_SCENARIOS + i for i in range(N_OOD)]  # OOD markers
    rng.shuffle(mix)
    return mix


def build_trained_store(tmp_path):
    """Run the training sweep and publish a model (not timed)."""
    store = ContentStore(tmp_path / "store")
    ledger = RunLedger(corpus_ledger_path(store))
    taus = np.linspace(0.15, 0.35, N_TRAIN)
    specs = [
        InstanceSpec(region_code="VT",
                     params={"TAU": float(t), "SYMP": 0.65},
                     n_days=N_DAYS, scale=1e-3, seed=0,
                     label=f"train-{t:.3f}", asset_seed=0)
        for t in taus
    ]
    run_instances(specs, store=store, ledger=ledger, parallel=False)
    corpus = build_corpus(store)
    registry = ModelRegistry(store)
    registry.publish(train_model(corpus, seed=0))
    return store, corpus, registry


def heldout_accuracy(corpus):
    """Honest accuracy: hold out every 3rd run, retrain, score."""
    test_idx = np.arange(0, len(corpus), 3)
    train_idx = np.setdiff1d(np.arange(len(corpus)), test_idx)
    model = train_model(corpus.subset(train_idx), seed=0)
    rel, cover = [], []
    for i in test_idx:
        pred = model.predict_features(corpus.features[i])
        truth = corpus.outputs[i]
        peak = max(float(np.max(np.abs(truth))), 1e-9)
        rel.append(float(np.sqrt(np.mean((pred.mean - truth) ** 2))) / peak)
        lo, hi = pred.bands()
        cover.append(float(np.mean((truth >= lo) & (truth <= hi))))
    return float(np.mean(rel)), float(np.mean(cover)), len(test_idx)


def drive(service, mix):
    """Submit the whole mix from N_THREADS threads, wait for every reply."""
    chunks = np.array_split(np.asarray(mix), N_THREADS)
    ids = [[] for _ in range(N_THREADS)]

    def submitter(slot):
        for idx in chunks[slot]:
            idx = int(idx)
            spec = (ood_scenario(idx - N_SCENARIOS) if idx >= N_SCENARIOS
                    else family_scenario(idx))
            adm = service.submit(spec)
            if adm.admitted:
                ids[slot].append(adm.request_id)

    threads = [threading.Thread(target=submitter, args=(s,))
               for s in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [service.queue.wait(rid, timeout_s=120.0)
            for slot in ids for rid in slot]


@pytest.fixture()
def trained_service(tmp_path):
    store, corpus, registry = build_trained_store(tmp_path)
    gate = SurrogateGate(registry, rtol=RTOL)
    svc = ScenarioService(store=store, surrogate=gate,
                          capacity=N_REQUESTS, batch_size=8,
                          parallel=False).start()
    yield svc, corpus
    svc.stop(drain=True, timeout_s=60.0)


def test_surrogate_service_zipf_mix(benchmark, trained_service,
                                    save_artifact):
    service, corpus = trained_service
    mix = zipf_mix(np.random.default_rng(11))
    watch = {}

    def load():
        t0 = time.perf_counter()
        records = drive(service, mix)
        watch["wall_s"] = time.perf_counter() - t0
        return records

    records = benchmark.pedantic(load, rounds=1, iterations=1)
    assert len(records) == N_REQUESTS
    assert all(rec.state == "done" for rec in records)

    by_source = {"surrogate": [], "exact": []}
    for rec in records:
        source = ("surrogate"
                  if rec.result is not None and "source" in rec.result
                  else "exact")
        by_source[source].append(rec.total_s)
    sur = np.array(by_source["surrogate"])
    exact = np.array(by_source["exact"])
    assert len(sur) > 0 and len(exact) > 0
    # Far-OOD requests must have fallen through to exact execution.
    snap = service.metrics_snapshot()
    assert snap.get("surrogate.fallback", 0) >= N_OOD

    p50_sur, p99_sur = np.percentile(sur, [50, 99])
    p50_exact, p99_exact = np.percentile(exact, [50, 99])
    speedup = p50_exact / max(p50_sur, 1e-9)
    # The acceptance bar: surrogate-served p50 at least 10x under exact.
    assert speedup >= 10.0

    rel_rmse, coverage, n_test = heldout_accuracy(corpus)
    rps = N_REQUESTS / watch["wall_s"]
    lines = [
        "surrogate fast path under Zipf submit load",
        f"  corpus: {len(corpus)} runs (VT TAU sweep, {N_DAYS} days); "
        f"mix {N_REQUESTS} requests = {N_SCENARIOS} in-family (zipf "
        f"a={ZIPF_A}) + {N_OOD} far-OOD, {N_THREADS} threads",
        f"  throughput: {rps:.1f} requests/s ({watch['wall_s']:.2f}s wall)",
        f"  served by surrogate: {len(sur)}/{N_REQUESTS} "
        f"({len(sur) / N_REQUESTS:.0%}); exact: {len(exact)}",
        f"  latency by source: surrogate p50 {p50_sur * 1e3:.2f}ms "
        f"p99 {p99_sur * 1e3:.2f}ms | exact p50 {p50_exact * 1e3:.1f}ms "
        f"p99 {p99_exact * 1e3:.1f}ms",
        f"  speedup: {speedup:.0f}x at p50 (surrogate vs exact)",
        f"  gate: hit {snap.get('surrogate.hit', 0):.0f}, "
        f"fallback {snap.get('surrogate.fallback', 0):.0f}, "
        f"miss {snap.get('surrogate.miss', 0):.0f} (rtol gate {RTOL})",
        f"  held-out accuracy ({n_test} runs): trajectory rel. RMSE "
        f"{rel_rmse:.3f}, ~95% band coverage {coverage:.0%}",
    ]
    save_artifact("surrogate_service", "\n".join(lines))
    print("\n".join(lines))
