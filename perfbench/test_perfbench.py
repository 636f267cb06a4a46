"""Harness tests on tiny instances (X^3, X[3]); run with

    python -m pytest perfbench -q
"""

import json
import resource
import sys

import pytest

import run
import tracer

XN3 = run.Workload("xn3", ("xn", "check", "--n", "3"),
                   {"summary.status": "pass", "summary.verdict": "gorenstein",
                    "summary.hilbert": [1, 6, 6, 1]},
                   "ring_for(xn_presentation(3))", cache="cold")
FM3_BLOCKS = run.Workload("fm3-blocks", ("fm", "check", "--n", "3", "--mode", "blocks"),
                          {"summary.status": "pass", "summary.rank_sums": [1, 7, 7, 1]},
                          "for k in range(1, 4):\n    ring_for(xn_presentation(k))")
FM3_BRIDGE = run.Workload("fm3-bridge", ("bridge", "--n", "3"),
                          {"summary.status": "pass", "summary.lhs": "1/240",
                           "summary.rhs": "1/240", "summary.constant": "1/5760"},
                          "ring_for(fm_presentation(3))")


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", str(tmp_path / "work"))


@pytest.mark.parametrize("workload", [XN3, FM3_BLOCKS, FM3_BRIDGE], ids=lambda w: w.name)
def test_golden_gate_passes_tiny_instances(workload):
    child = run.run_child(run.cli_argv(workload, ""), 0)
    report, problems = run.check_report(workload, child.code, child.stdout)
    assert problems == []
    assert report["schema"] == "tautring-report-1"


def test_golden_gate_rejects_wrong_values_codes_and_non_finite_numbers():
    child = run.run_child(run.cli_argv(XN3, ""), 0)
    assert run.check_report(XN3, child.code, child.stdout)[1] == []
    wrong = child.stdout.replace('"verdict": "gorenstein"', '"verdict": "defective"')
    assert run.check_report(XN3, 0, wrong)[1] == [
        "summary.verdict is 'defective', expected 'gorenstein'"]
    assert "does not match" in run.check_report(XN3, 1, child.stdout)[1][0]
    report, problems = run.check_report(XN3, 0, child.stdout.replace('"n": 3', '"n": NaN'))
    assert report is None and "not strict JSON" in problems[0]
    assert run.check_report(XN3, 0, "[1, 2]") == (None, ["exit code 0, report is not a JSON object"])


def test_failed_children_count_and_are_kept():
    broken = run.Workload("xn3-wrong", XN3.argv, dict(XN3.golden, **{"summary.hilbert": [1]}),
                          XN3.setup)
    runner = run.Runner(broken, 0)
    runner.prepare()
    runner.measure(0)
    assert runner.failed == runner.attempted - len(runner.setups) > 0
    assert run.end_to_end(runner)["fail_rate"][0] > 0
    assert any("summary.hilbert" in p for p in runner.problems)


def test_warm_cache_run_matches_cold_checks():
    runner = run.Runner(run.Workload("xn3-warm", XN3.argv, XN3.golden, XN3.setup,
                                     cache="warm"), 0)
    runner.prepare()
    runner.measure(0)
    assert runner.failed == 0 and runner.samples
    assert len(runner.setups) == run.SETUP_PROBES
    assert runner.environment["kernel_backend"] == "pure"
    assert runner.samples[0][1]["cache"]["entry_count"] > 0
    assert run.end_to_end(runner)["cache_mb"][0] > 0


def test_traced_run_matches_untraced_and_counts_repeat_across_hash_seeds():
    runner = run.Runner(XN3, 0)
    runner.prepare()
    traced = runner.measure_traced(0)
    assert runner.problems == [] and len(traced) >= 2
    metrics, unpatched = run.per_layer(runner, traced)
    assert runner.problems == [] and unpatched == []
    assert [metrics[f"kernel.columns.d{d}"] for d in range(5)] == [1, 6, 21, 56, 126]
    assert metrics["cache.misses"] > 0 and metrics["cache.hits"] == 0
    assert 0 < metrics["kernel.rows_zero"] < metrics["kernel.rows_inserted"]
    assert metrics["kernel.elim_s"] > 0 and metrics["trace.overhead_s"] != 0


def test_self_times_subtract_child_spans_and_leaf_calls():
    spans = [
        ["cli.main", 0.0, 10.0, None, None, None, {}],
        ["algebra.basis", 1.0, 5.0, 0, 3, None, {}],
        ["kernel.degree_keys", 1.0, 1.5, 1, 3, None, {}],
        ["kernel.insert_products", 2.0, 4.0, 1, None, None, {"kernel.insert": [10, 1.5, 7]}],
        ["cache.put", 4.5, 4.75, 1, None, 100, {}],
        ["algebra.gram", 6.0, 8.0, 0, 1, None, {}],
        ["algebra.integer_rank", 6.5, 7.5, 5, None, None, {"kernel.insert": [3, 0.5, 1]}],
        ["fm.block_pairing", 8.0, 9.5, 0, None, 4, {"xn.socle_coefficient": [5, 0.25, 0]}],
        ["algebra.integer_rank", 8.5, 9.0, 7, None, None, {}],
        ["cache.get", 9.5, 9.75, 0, None, 1, {}],
        ["cache.get", 9.75, 10.0, 0, None, 0, {}],
    ]
    bases = [[3, 20, 0, 15, 4], [2, 7, 1, 2, 9]]  # degree, columns, recomputed, nnz, bits
    m = tracer.layer_metrics({"spans": spans, "bases": bases})
    assert m["algebra.basis_s.d3"] == 4.0
    assert m["algebra.basis_self_s"] == 4.0 - 0.5 - 2.0 - 0.25
    assert m["kernel.degree_keys_s"] == 0.5
    assert m["kernel.row_gen_s"] == 0.5 and m["kernel.elim_s"] == 1.5
    assert (m["kernel.rows_inserted"], m["kernel.rows_zero"]) == (10, 7)
    assert m["kernel.useful_row_ratio"] == pytest.approx(0.3)
    assert m["algebra.gram_s"] == 2.0  # own 1.0 plus the rank inside it
    assert m["fm.block_rank_s"] == 0.5
    assert m["fm.block_pairing_s"] == 1.5 - 0.5 - 0.25
    assert (m["xn.socle_coefficient_calls"], m["xn.socle_coefficient_s"]) == (5, 0.25)
    assert (m["fm.blocks"], m["cache.hits"], m["cache.misses"]) == (4, 1, 1)
    assert (m["cache.bytes_written"], m["cache.put_s"], m["cache.get_s"]) == (100, 0.25, 0.5)
    assert (m["kernel.columns.d3"], m["kernel.columns.d2"]) == (20, 7)
    assert (m["kernel.echelon_nnz"], m["kernel.max_coeff_bits"]) == (17, 9)
    assert m["cache.recomputed_bases"] == 1


def test_peak_rss_is_each_childs_own():
    big = run.run_child([sys.executable, "-c", "x = b'x' * (96 << 20)"], 0)
    small = run.run_child([sys.executable, "-c", "pass"], 0)
    assert big.code == small.code == 0
    assert big.peak_rss_mb > 96 > 48 > small.peak_rss_mb
    # the running maximum over all children would report the big one again
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 > 96


def test_benchmark_json_names_every_metric_the_harness_prints():
    with open(f"{run.ROOT}/BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    layer = tracer.layer_metrics({"spans": [], "bases": []})
    declared = {m["name"] for m in spec["per_layer"]}
    assert declared == set(layer) | {"cli.overhead_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["end_to_end"]} <= {"wall_s", "peak_rss_mb", "setup_s"}
