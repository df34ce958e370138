"""Command-line interface tests."""

import pytest

from repro.cli import build_parser, main


def test_parser_subcommands():
    parser = build_parser()
    args = parser.parse_args(["simulate", "VT", "--days", "10"])
    assert args.region == "VT"
    assert args.days == 10


def test_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "51" in out
    assert "bridges" in out


def test_synth_writes_csvs(tmp_path, capsys):
    assert main(["synth", "VT", "--scale", "1e-3",
                 "-o", str(tmp_path)]) == 0
    assert (tmp_path / "vt_persons.csv").exists()
    assert (tmp_path / "vt_network.csv").exists()
    out = capsys.readouterr().out
    assert "persons" in out


def test_simulate(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    assert main(["simulate", "VT", "--days", "30", "--tau", "0.3",
                 "--csv", str(csv)]) == 0
    out = capsys.readouterr().out
    assert "attack" in out
    lines = csv.read_text().splitlines()
    assert lines[0] == "day,confirmed_cumulative,deaths_cumulative"
    assert len(lines) == 32  # header + 31 days


def test_simulate_with_interventions(capsys):
    assert main(["simulate", "VT", "--days", "20",
                 "--sh-compliance", "0.8", "--vhi-compliance", "0.5"]) == 0


def test_night(capsys):
    assert main(["night", "prediction"]) == 0
    out = capsys.readouterr().out
    assert "fits: True" in out


def test_calibrate_small(capsys):
    assert main(["calibrate", "VT", "--cells", "10", "--days", "40",
                 "--samples", "100", "--burn-in", "100"]) == 0
    out = capsys.readouterr().out
    assert "TAU" in out and "corr" in out


def test_simulate_store_hit(tmp_path, capsys):
    flags = ["simulate", "VT", "--days", "20",
             "--store-dir", str(tmp_path / "store")]
    assert main(flags) == 0
    cold = capsys.readouterr().out
    assert "[store hit]" not in cold
    assert main(flags) == 0
    warm = capsys.readouterr().out
    assert "[store hit]" in warm
    # Identical numbers either way.
    assert warm.replace(" [store hit]", "") == cold


def test_simulate_is_replicate_zero_of_simulate_replicates(tmp_path, capsys):
    """One meaning of "confirmed" (ascertained symptomatic cases) and one
    key on both paths of one command: the single run *is* the seed-0 lane
    of the batched ensemble, so each is a store hit for the other."""
    from repro.core.parallel import InstanceSpec
    from repro.store import ContentStore, instance_key

    root = tmp_path / "store"
    flags = ["simulate", "VT", "--days", "30", "--tau", "0.3",
             "--store-dir", str(root), "--no-trace"]
    assert main(flags) == 0
    single = capsys.readouterr().out
    assert main(flags + ["--replicates", "2"]) == 0
    assert "hits=1 misses=1" in capsys.readouterr().out
    spec = InstanceSpec(
        region_code="VT", n_days=30, scale=1e-3, seed=0, asset_seed=0,
        params={"TAU": 0.3, "SYMP": 0.65})
    lane0 = ContentStore(root).get(instance_key(spec))
    assert lane0["confirmed"][-1] > 0
    assert f"confirmed {int(lane0['confirmed'][-1]):,}," in single

    # The other way round: a single run after --replicates is served.
    flags[flags.index(str(root))] = str(tmp_path / "fresh")
    assert main(flags + ["--replicates", "2"]) == 0
    capsys.readouterr()
    assert main(flags) == 0
    assert capsys.readouterr().out == single.replace(
        "\n", " [store hit]\n", 1)


def test_simulate_prints_the_engine_run_s_numbers(capsys):
    """The summary line is the reference run's: attack rate, the argmax
    of the engine's infectious census, confirmed and deaths."""
    import numpy as np

    from repro.analytics import DEATHS, summarize, target_series
    from repro.core.runner import (
        confirmed_series,
        load_region_assets,
        run_instance,
    )

    assert main(["simulate", "VT", "--days", "30", "--tau", "0.3",
                 "--seed", "2", "--no-cache", "--no-trace"]) == 0
    out = capsys.readouterr().out
    result, model = run_instance(
        load_region_assets("VT", 1e-3, 2),
        {"TAU": 0.3, "SYMP": 0.65}, n_days=30, seed=2)
    census = result.state_counts[:, model.is_infectious].sum(axis=1)
    confirmed = confirmed_series(result, model, 30)
    deaths = target_series(summarize(result, model), model, DEATHS)
    assert out == (f"VT: attack {result.attack_rate(model):.1%}, "
                   f"peak day {int(np.argmax(census))}, "
                   f"confirmed {int(confirmed[-1]):,}, "
                   f"deaths {int(deaths[-1]):,}\n")


def test_simulate_no_cache_never_hits(tmp_path, capsys):
    flags = ["simulate", "VT", "--days", "20", "--no-cache",
             "--store-dir", str(tmp_path / "store")]
    assert main(flags) == 0
    assert main(flags) == 0
    assert "[store hit]" not in capsys.readouterr().out
    assert not (tmp_path / "store").exists()


def test_simulate_csv_from_cache_identical(tmp_path, capsys):
    store = str(tmp_path / "store")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "VT", "--days", "15", "--store-dir", store,
                 "--csv", str(a)]) == 0
    assert main(["simulate", "VT", "--days", "15", "--store-dir", store,
                 "--csv", str(b)]) == 0
    assert a.read_text() == b.read_text()


def test_simulate_ledger_journal(tmp_path, capsys):
    ledger = tmp_path / "run.jsonl"
    flags = ["simulate", "VT", "--days", "15",
             "--store-dir", str(tmp_path / "store"),
             "--ledger", str(ledger)]
    assert main(flags) == 0
    assert main(flags) == 0
    from repro.store import replay_ledger
    replay = replay_ledger(ledger)
    assert replay.count("instance_completed") == 1
    assert replay.count("cache_hit") == 1


def test_resume_with_no_cache_rejected():
    with pytest.raises(SystemExit):
        main(["simulate", "VT", "--days", "10",
              "--no-cache", "--resume"])


def test_calibrate_reports_store_stats(tmp_path, capsys):
    flags = ["calibrate", "VT", "--cells", "6", "--days", "40",
             "--samples", "100", "--burn-in", "100",
             "--store-dir", str(tmp_path / "store")]
    assert main(flags) == 0
    cold = capsys.readouterr().out
    assert "6 misses" in cold
    assert main(flags) == 0
    warm = capsys.readouterr().out
    assert "6 hits" in warm and "100% served" in warm


def test_night_resume_roundtrip(tmp_path, capsys):
    ledger = str(tmp_path / "night.jsonl")
    assert main(["night", "prediction", "--ledger", ledger]) == 0
    capsys.readouterr()
    assert main(["night", "prediction", "--ledger", ledger,
                 "--resume"]) == 0
    out = capsys.readouterr().out
    assert "0 re-executed" in out
    assert "makespan: 0.00h" in out


def test_night_resume_requires_ledger(capsys):
    assert main(["night", "prediction", "--resume"]) == 2
    assert "needs --ledger" in capsys.readouterr().err


def test_store_stats_gc_clear(tmp_path, capsys):
    from repro.core import runner

    runner._ASSET_CACHE.clear()  # as in a fresh `repro` process
    store = str(tmp_path / "store")
    assert main(["simulate", "VT", "--days", "15",
                 "--store-dir", store]) == 0
    capsys.readouterr()
    assert main(["store", "stats", "--dir", store]) == 0
    # One outcome blob, its region-summary blob and the region bundle.
    out = capsys.readouterr().out
    assert "3 blobs" in out and "assets/v1" in out
    assert main(["store", "gc", "--dir", store, "--max-bytes", "0"]) == 0
    assert "evicted 3 blobs" in capsys.readouterr().out
    assert main(["store", "clear", "--dir", store]) == 0
    assert "removed 0 blobs" in capsys.readouterr().out


def test_simulate_quarantine_exit_code(capsys):
    # A persistent worker fault exhausts the single attempt: exit 4.
    assert main(["simulate", "VT", "--days", "5", "--no-trace",
                 "--no-cache", "--inject",
                 "worker.exception:times=3"]) == 4
    assert "quarantined" in capsys.readouterr().err


def test_simulate_retry_recovers(capsys):
    # A one-shot fault with a retry budget recovers to a clean exit.
    assert main(["simulate", "VT", "--days", "5", "--no-trace",
                 "--no-cache", "--inject", "worker.exception:times=1",
                 "--retries", "3"]) == 0
    assert "attack" in capsys.readouterr().out


def test_simulate_replicates_quarantine_exit_code(capsys):
    # The batched path honours --inject like the single run: exit 4.
    assert main(["simulate", "VT", "--days", "5", "--no-trace",
                 "--no-cache", "--replicates", "2", "--inject",
                 "worker.exception:times=99"]) == 4
    assert "quarantined" in capsys.readouterr().err


def test_simulate_replicates_retry_recovers(capsys):
    # ... and --retries: the group's one-shot fault quarantines a single
    # attempt and is retried away under a budget.
    flags = ["simulate", "VT", "--days", "5", "--no-trace", "--no-cache",
             "--replicates", "2", "--inject", "worker.exception:times=1"]
    assert main(flags) == 4
    assert main(flags + ["--retries", "3"]) == 0
    assert "2 replicates" in capsys.readouterr().out


def test_simulate_replicates_refuse_csv(tmp_path, capsys):
    csv = tmp_path / "series.csv"
    assert main(["simulate", "VT", "--days", "5", "--no-trace",
                 "--no-cache", "--replicates", "2",
                 "--csv", str(csv)]) == 2
    assert "--csv" in capsys.readouterr().err
    assert not csv.exists()


def test_night_transfer_exhaustion_exit_code(capsys):
    assert main(["night", "prediction", "--no-trace", "--no-cache",
                 "--inject", "transfer.fail:times=99"]) == 4
    assert "gave up after retries" in capsys.readouterr().err


def test_night_refuses_fault_sites_it_never_consults(capsys):
    assert main(["night", "prediction", "--no-trace", "--no-cache",
                 "--inject", "worker.crash",
                 "--inject", "cas.corrupt:p=1"]) == 2
    err = capsys.readouterr().err
    assert "cas.corrupt, worker.crash" in err
    assert "transfer.fail, ledger.torn, node.fail" in err


def test_night_node_loss_exhaustion_exit_code(capsys):
    assert main(["night", "prediction", "--no-trace", "--no-cache",
                 "--inject", "node.fail:mttf=0.001"]) == 4
    assert "lost a node on 3 attempt(s)" in capsys.readouterr().err


def test_chaos_quarantine_exit_code(capsys):
    # Every attempt faults: the drill reports quarantines via exit 4.
    assert main(["chaos", "run", "VT", "--instances", "2", "--days", "5",
                 "--serial", "--max-attempts", "2",
                 "--inject", "worker.exception:times=99"]) == 4
    assert "quarantined" in capsys.readouterr().out


def test_chaos_recovered_run_exits_clean(capsys):
    assert main(["chaos", "run", "VT", "--instances", "2", "--days", "5",
                 "--serial", "--max-attempts", "3",
                 "--inject", "worker.exception:times=1"]) == 0
    assert "equivalence: OK" in capsys.readouterr().out


def test_serve_flags_default_to_the_service_config():
    """Every ``serve`` option is a ``ServiceConfig`` field, and the
    parser's defaults are the config's — one list, one set of defaults."""
    import dataclasses

    from repro.service import ServiceConfig

    args = vars(build_parser().parse_args(["serve"]))
    args["inject"] = tuple(args["inject"] or ())
    config = ServiceConfig()
    fields = {f.name for f in dataclasses.fields(config)}
    # salt is the one non-flag field; trace and --resume are the CLI's
    # own (the tracer is passed beside the config, not inside it).
    assert fields - set(args) == {"salt"}
    assert set(args) - fields == {"command", "func", "trace", "no_trace",
                                  "resume"}
    assert {name: args[name] for name in fields & set(args)} == {
        name: getattr(config, name) for name in fields & set(args)}
