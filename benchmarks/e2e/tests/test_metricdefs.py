"""The declared vocabulary obeys the benchmark contract and states its
predictions."""

import json
from pathlib import Path

import metricdefs

ROOT = Path(__file__).resolve().parents[3]


def test_every_name_is_well_formed_and_unique():
    names = ([m.name for m in metricdefs.END_TO_END]
             + [m.name for m in metricdefs.PER_LAYER]
             + list(metricdefs.WORKLOADS))
    for name in names:
        assert metricdefs.NAME_RE.fullmatch(name), name
    assert len(names) == len(set(names))


def test_contract_limits():
    assert 2 <= len(metricdefs.WORKLOADS) <= 8
    assert 1 <= len(metricdefs.END_TO_END) <= 16
    assert 1 <= len(metricdefs.PER_LAYER) <= 128
    assert 1 <= metricdefs.RUN_SECONDS <= 60
    for why in metricdefs.WORKLOADS.values():
        assert len(why) <= 200 and "\n" not in why
    for m in metricdefs.END_TO_END + metricdefs.PER_LAYER:
        assert m.better in ("higher", "lower")
        assert 1 <= len(m.unit) <= 16
    for m in metricdefs.END_TO_END:
        assert 0 < m.bound <= 0.25
    setup = {m.name: m for m in metricdefs.END_TO_END}["setup_s"]
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in metricdefs.END_TO_END)
    # 4 + 22 x workloads runs must fit the driver's 3420 s with margin:
    # a run is RUN_SECONDS timed plus at most ~14 s of set-up samples,
    # warm-up and checks (README "Budget").
    runs = 4 + 22 * len(metricdefs.WORKLOADS)
    assert runs * (metricdefs.RUN_SECONDS + 14) < 3420


def test_every_per_layer_metric_predicts_what_it_moves():
    end_to_end = {m.name for m in metricdefs.END_TO_END}
    for m in metricdefs.PER_LAYER:
        assert m.moves, f"{m.name} declares nothing it should move"
        assert m.how in ("p", "r", "c", "d"), m.name
        for workload, metric in m.moves:
            assert workload in metricdefs.WORKLOADS, (m.name, workload)
            assert metric in end_to_end, (m.name, metric)


def test_benchmark_json_is_generated_from_this_module():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metricdefs.benchmark_json()
    assert set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert on_disk["paths"] == ["benchmarks/e2e"]
    for entry in on_disk["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
    for entry in on_disk["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
