"""The ``harness optimize`` subcommand and the optimizer gate logic."""

import pytest

from repro.harness.__main__ import (
    EXPERIMENTS,
    QUICK_ASTRO,
    QUICK_NEURO,
    _opt_failures,
    main,
)
from repro.harness.experiments import routing_table


def test_opt_experiment_registered():
    assert "opt" in EXPERIMENTS


def test_optimize_explain_quick(capsys):
    assert main(["optimize", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "Rule firing trace" in out
    # The one rewrite chain: astro on Dask.
    assert "astro/dask: 2 rewrite(s) in 2 pass(es)" in out
    assert "fuse 'preprocess' into 'exposures'" in out
    assert "fuse 'patches' into 'exposures+preprocess'" in out
    assert "neuro/dask: 0 rewrite(s)" in out
    assert "(not fused: this engine's lowering already pipelines" in out
    assert "Router decisions" in out
    assert "makespan_s" in out
    assert "neuro: routed to myria" in out
    assert "astro: routed to myria" in out


def test_optimize_single_engine_trace(capsys):
    assert main(["optimize", "--quick", "--engines", "spark"]) == 0
    out = capsys.readouterr().out
    assert "neuro/spark" in out
    assert "dask" not in out.split("Router decisions")[0]


def test_unsupported_route_value_rejected():
    with pytest.raises(SystemExit):
        main(["fig10c", "--quick", "--route", "spark"])


def test_opt_failures_gate():
    good = {"pipeline": "neuro", "engine": "dask",
            "naive_s": 10.0, "optimized_s": 9.5, "identical": True}
    slow = dict(good, engine="spark", optimized_s=10.5)
    diff = dict(good, engine="myria", identical=False)
    assert _opt_failures([good]) == []
    failures = _opt_failures([good, slow, diff])
    assert len(failures) == 2
    assert any("neuro/spark" in f and "exceeds" in f for f in failures)
    assert any("neuro/myria" in f and "byte-identical" in f for f in failures)


def test_opt_failures_tolerate_float_noise():
    row = {"pipeline": "astro", "engine": "dask",
           "naive_s": 10.0, "optimized_s": 10.0 + 1e-9, "identical": True}
    assert _opt_failures([row]) == []


def test_routing_table_rows():
    rows = routing_table(n_subjects=1, n_visits=1,
                         neuro_profile=QUICK_NEURO,
                         astro_profile=QUICK_ASTRO)
    pipelines = {row["pipeline"] for row in rows}
    assert pipelines == {"neuro", "astro"}
    chosen = [row for row in rows if row.get("chosen")]
    assert len(chosen) == 2
    refused = [row for row in rows if "refused" in row]
    assert {row["engine"] for row in refused} == {"scidb", "tensorflow"}
    measured = [row for row in rows if "makespan_s" in row]
    assert {row["engine"] for row in measured} == {"dask", "myria", "spark"}
    for row in chosen:
        assert row["makespan_s"] == min(
            r["makespan_s"] for r in measured
            if r["pipeline"] == row["pipeline"]
        )


@pytest.mark.parametrize("pipeline", ["neuro", "astro"])
def test_route_auto_keeps_the_chosen_run(pipeline):
    from repro.harness import experiments as E
    from repro.harness.runner import (
        astro_visits,
        neuro_subjects,
        observe_clusters,
    )

    if pipeline == "neuro":
        run, data = E._neuro_end_to_end, neuro_subjects(1, **QUICK_NEURO)
    else:
        run, data = E._astro_end_to_end, astro_visits(1, **QUICK_ASTRO)
    clusters = []
    with observe_clusters(clusters.append):
        seconds, _results, _opt = run("auto", data, n_nodes=4)
    # One run per Table-1-capable engine; the winner is not rerun.
    assert len(clusters) == 3
    fastest = min(run(kind, data, n_nodes=4)[0]
                  for kind in ("dask", "myria", "spark"))
    assert seconds == fastest


def test_ledger_optimize_no_cache_runs_each_cell_once(tmp_path, monkeypatch,
                                                      capsys):
    from repro.harness.parallel import TRIAL_FNS

    calls = []
    inner = TRIAL_FNS["optcell"]

    def counting(**kwargs):
        calls.append((kwargs["pipeline"], kwargs["kind"]))
        return inner(**kwargs)

    monkeypatch.setitem(TRIAL_FNS, "optcell", counting)
    rc = main(["ledger", "--optimize", "--quick", "--no-cache",
               "--out-dir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 0
    assert sorted(calls) == sorted(
        (pipeline, kind) for pipeline in ("neuro", "astro")
        for kind in ("dask", "myria", "spark")
    )
