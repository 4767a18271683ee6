"""Self-tests of the benchmark: its oracles reject corrupted results, self time
is computed correctly, and BENCHMARK.json matches what the runs report.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os

import pytest

import oracles
import probes
import run
import workloads
from spans import NullTracer, Tracer, self_times
from worker import traced_substreams

from dpcomm import BinarySumsInstance, run_game

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_estimate_shifted_by_ten_standard_errors_is_rejected():
    z = oracles.bonferroni_z(960)
    guesses, ses, expected = [2.0, 3.1, 1.9], [0.01, 0.02, 0.01], [2.0, 3.1, 1.9]
    assert oracles.check_estimates(guesses, ses, expected, z) is None
    shifted = [guesses[0], guesses[1] + 10 * ses[1], guesses[2]]
    assert "10.00 SE" in oracles.check_estimates(shifted, ses, expected, z)


def test_bonferroni_bound_grows_with_the_comparisons():
    assert oracles.bonferroni_z(1) == pytest.approx(3.2905, abs=1e-4)
    assert 3.2905 < oracles.bonferroni_z(10) < oracles.bonferroni_z(960) < 10.0


def _sender_rows(gd_offset):
    return [{"noise_var": "0.5", "oblivious_kl": "0.0945", "aware_kl": "0.0",
             "gd_kl": repr(0.0 + gd_offset), "gd_vs_closed_form": repr(gd_offset)}]


def test_gd_kl_off_by_1e_3_is_rejected():
    assert oracles.check_sender_table(_sender_rows(0.0)) is None
    assert "above the closed form" in oracles.check_sender_table(_sender_rows(1e-3))


def test_non_mpg_reported_as_mpg_is_rejected():
    assert oracles.check_mpg(False, 2.0, expect_mpg=False) is None
    assert oracles.check_mpg(True, 2.0, expect_mpg=False) is not None
    assert oracles.check_mpg(True, 0.0, expect_mpg=False) is not None
    table = ("# seed=0\r\nrecord,agent,is_mpg,max_violation\r\n"
             "summary,,False,2.0\r\n")
    _, rows = oracles.parse_table(table)
    assert oracles.check_multi_round_table(rows) is not None


def test_cli_tables_are_parsed_and_checked():
    text = ("# config_sha256=abc\r\n# seed=0\r\n# version=0.1.0\r\n"
            "start_p1,start_p2,p1,p2,p_sum,converged,max_unilateral_gain,is_potential_game,"
            "max_cross_deviation\r\n0.6,0.2,0.23,0.27,0.5,True,0.0,True,8.8e-14\r\n")
    provenance, rows = oracles.parse_table(text)
    assert provenance == {"config_sha256": "abc", "seed": "0", "version": "0.1.0"}
    assert oracles.check_equilibrium_table(rows) is None
    rows[0]["p2"] = "0.2701"
    assert "not within" in oracles.check_equilibrium_table(rows)
    calibrate = [{"epsilon": "4.0", "episode_len": "1", "feasible": "True",
                  "roundtrip_epsilon": "4.0000001"}]
    assert "exceeds" in oracles.check_calibrate_table(calibrate)


def test_self_time_on_a_synthetic_span_tree():
    # pass [0, 10] > binary_sums [1, 7] > rng [2, 3] and rng [4, 6]; cgp [8, 9];
    # a probe span [20, 25] whose two children [21, 24] and [23, 25] overlap
    # and together cover [21, 25].
    spans = [
        ["bench.pass", 0.0, 10.0, None, "pass"],
        ["binary_sums.run_game", 1.0, 7.0, 0, "pass"],
        ["rng.substream", 2.0, 3.0, 1, "pass"],
        ["rng.substream", 4.0, 6.0, 1, "pass"],
        ["cgp.find_nash", 8.0, 9.0, 0, "pass"],
        ["binary_sums.jobs2.n5", 20.0, 25.0, None, "probe"],
        ["rng.substream", 21.0, 24.0, 5, "probe"],
        ["rng.substream", 23.0, 25.0, 5, "probe"],
    ]
    assert self_times(spans) == pytest.approx(
        {"bench": 3.0, "binary_sums": 3.0 + 1.0, "rng": 3.0 + 5.0, "cgp": 1.0})


def test_tracer_records_parents_and_substream_calls():
    tr = Tracer()
    tr.pass_id = "pass"
    instance = BinarySumsInstance((1, 0, 1), (1.0, 1.0, 1.0), "aware")
    with traced_substreams(tr):
        tr.call("bench.pass", run_game, instance, 10, 3)
    assert [s[0] for s in tr.spans] == ["bench.pass"] + ["rng.substream"] * 3
    assert all(s[3] == 0 for s in tr.spans[1:])
    # the wrapper is removed again and an untraced call records nothing
    run_game(instance, 10, 3)
    assert tr.count("rng.substream", "pass") == 3
    assert NullTracer().call("x.y", max, 1, 2) == 2


def test_raising_operation_counts_as_failed():
    tally = workloads.Tally()
    tally.attempt("cgp", "ok", lambda: None)
    tally.attempt("cgp", "wrong", lambda: "bad result")
    tally.attempt("multi_round", "raises", lambda: 1 / 0)
    assert (tally.ops, tally.failed) == (3, 2)
    assert tally.failures == {"cgp": 1, "multi_round": 1}


def test_inputs_are_a_function_of_the_seed():
    make_inputs, _ = workloads.WORKLOADS["library"]
    assert make_inputs(7) == make_inputs(7)
    for part, inputs in make_inputs(7).items():
        assert inputs != make_inputs(8)[part], part


def test_benchmark_json_matches_the_harness():
    bench = _benchmark_json()
    assert tuple(w["name"] for w in bench["workloads"]) == run.WORKLOADS
    assert tuple(workloads.WORKLOADS) == run.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == probes.metric_units()
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
