import contextlib
import dataclasses
import hashlib
import importlib.metadata
import inspect
import io
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpcomm.binary_sums
from dpcomm import aware_optimum_gd, diagonal_sender
from dpcomm.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, ConfigError, main
from dpcomm.report import ResultTable, line_plot_svg


def write_config(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def run(tmp_path, command, config, seed=0, fmt="csv", extra=()):
    cfg = write_config(tmp_path / "config.json", config)
    out = tmp_path / "out"
    argv = [command, "--config", cfg, "--seed", str(seed), "--out", str(out),
            "--format", fmt, *extra]
    code = main(argv)
    name = f"{command.replace('-', '_')}.{fmt}"
    return code, out / name


CALIBRATE = {
    "epsilons": [2.0, 4.0],
    "delta": 1e-4,
    "gamma1": 0.005,
    "gamma2": 0.5,
    "num_agents": 500,
    "clip_norm": 1.0,
}

BINARY_SUMS = {
    "bits": [1, 0, 1, 1, 0],
    "epsilons": [1.0986122886681098],  # flip probability 1/2
    "trials": 50000,
}

EQUILIBRIUM = {
    "benefit_weights": [2.0, 2.0],
    "privacy_weights": [1.0, 1.0],
    "num_starts": 4,
}

MULTI_ROUND = {
    "num_agents": 2,
    "horizon": 2,
    "reward_alpha": 0.1,
    "reward_beta": 0.2,
    "initial_savings": [1.0, 1.0],
    "spend_grid": [0.0, 1.0],
    "privacy_grid": [0.0, 0.5],
}

SENDER = {
    "dim": 2,
    "noise_vars": [0.0, 0.5],
    "gd_steps": 3000,
}

# Small valid configs, one per command, that run quickly and set every key, so
# that the fuzz test can mutate each.
SMALL = {
    "calibrate": dict(CALIBRATE, epsilons=[2.0], episode_lens=[1], svg="c.svg"),
    "binary-sums": dict(BINARY_SUMS, trials=1000, receiver_modes=["naive"]),
    "equilibrium": dict(EQUILIBRIUM, num_starts=1, grid_step=0.1, tol=1e-6),
    "multi-round": dict(MULTI_ROUND, horizon=1, discount=1.0, team_weights=[1.0, 1.0],
                        tol=1e-12, max_sweeps=2, svg="p.svg"),
    "sender": {"dim": 1, "target_variances": [1.0], "target_mean": [0.0], "noise_vars": [0.5],
               "gd_steps": 50, "gd_learning_rate": 0.1, "svg": "s.svg"},
}


def parse_csv(path):
    return parse_csv_text(path.read_bytes().decode())


def parse_csv_text(text):
    lines = text.split("\r\n")  # RFC-4180 line endings
    provenance = [l for l in lines if l.startswith("# ")]
    rows = [l.split(",") for l in lines if l and not l.startswith("# ")]
    return provenance, rows[0], rows[1:]


class TestCalibrate:
    def test_feasible_sweep(self, tmp_path):
        code, path = run(tmp_path, "calibrate", CALIBRATE)
        assert code == EXIT_OK
        provenance, header, rows = parse_csv(path)
        assert any("config_sha256=" in line for line in provenance)
        assert any("seed=0" in line for line in provenance)
        assert len(rows) == 2
        sigma = [float(r[header.index("sigma_sq")]) for r in rows]
        assert sigma[0] > sigma[1]  # decreasing in epsilon
        back = [float(r[header.index("roundtrip_epsilon")]) for r in rows]
        eps = [float(r[header.index("epsilon")]) for r in rows]
        assert all(b <= e + 1e-9 for b, e in zip(back, eps))

    def test_episode_ratio_rows(self, tmp_path):
        config = dict(CALIBRATE, epsilons=[2.0], episode_lens=[1, 40])
        code, path = run(tmp_path, "calibrate", config)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        sigma = {int(r[header.index("episode_len")]): float(r[header.index("sigma_sq")])
                 for r in rows}
        # the episode search may pick a different witness, but never less noise
        assert sigma[40] >= sigma[1]

    def test_infeasible_row_exits_2(self, tmp_path):
        config = dict(CALIBRATE, gamma1=0.5, num_agents=3, epsilons=[1.0])
        code, path = run(tmp_path, "calibrate", config)
        assert code == EXIT_INFEASIBLE
        _, header, rows = parse_csv(path)
        assert rows[0][header.index("feasible")] == "False"
        assert rows[0][header.index("sigma_sq")] == ""

    def test_overflowing_order_bound_row_exits_2(self, tmp_path, capsys):
        # sigma'^2 overflows at every beta; this used to print "dpcomm calibrate:
        # math domain error" and exit 1 without a table.
        code, path = run(tmp_path, "calibrate", dict(CALIBRATE, epsilons=[1e-300]))
        assert code == EXIT_INFEASIBLE and capsys.readouterr().err == ""
        _, header, rows = parse_csv(path)
        assert [row[header.index("feasible")] for row in rows] == ["False"]

    def test_validity_edge_row_exits_0(self, tmp_path):
        # The witness sits on sigma'^2 = 0.7, where round_trip used to disagree
        # with the calibrator by one ulp and the run exited 1.
        config = {"epsilons": [27.918784390142296], "delta": 1.166202841374608e-05,
                  "gamma1": 0.01708537566615429, "gamma2": 0.6275827479635696,
                  "num_agents": 1275, "clip_norm": 1.8409039527949058}
        code, path = run(tmp_path, "calibrate", config)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        assert len(rows) == 1 and rows[0][header.index("feasible")] == "True"
        back = float(rows[0][header.index("roundtrip_epsilon")])
        assert back <= config["epsilons"][0]

    def test_malformed_json_exits_1(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"epsilons": [2.0,\n  "delta": }')
        assert main(["calibrate", "--config", str(cfg)]) == EXIT_USAGE

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "calibrate", dict(CALIBRATE, sigma=3.0))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "sigma" in err and "line" in err

    def test_missing_key_exits_1(self, tmp_path):
        config = dict(CALIBRATE)
        del config["delta"]
        code, _ = run(tmp_path, "calibrate", config)
        assert code == EXIT_USAGE


class TestBinarySums:
    def test_oracle_agreement(self, tmp_path):
        code, path = run(tmp_path, "binary-sums", BINARY_SUMS)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        naive = [r for r in rows if r[header.index("mode")] == "naive"]
        aware = [r for r in rows if r[header.index("mode")] == "aware"]
        assert len(naive) == len(aware) == 5
        team = float(aware[0][header.index("analytic_team_reward")])
        assert team == 0.0
        naive_team = float(naive[0][header.index("analytic_team_reward")])
        assert naive_team < 0.0

    def test_perfect_communication_row(self, tmp_path):
        config = dict(BINARY_SUMS, epsilons=[1e9], trials=1000)
        code, path = run(tmp_path, "binary-sums", config)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        assert all(float(r[header.index("mc_utility")]) == 0.0 for r in rows)

    def test_zero_trials_rejected(self, tmp_path):
        code, _ = run(tmp_path, "binary-sums", dict(BINARY_SUMS, trials=0))
        assert code == EXIT_USAGE

    def test_guess_off_the_oracle_exits_2(self, tmp_path, monkeypatch):
        # One Monte-Carlo guess moved by 10 standard errors fails the 3-error
        # gate; the table is still written and holds that row.
        run_game = dpcomm.binary_sums.run_game

        def shifted(instance, trials, seed):
            out = run_game(instance, trials, seed)
            guesses = list(out.guesses)
            guesses[2] += 10.0 * out.mc_std_errors[2]
            return dataclasses.replace(out, guesses=tuple(guesses))

        monkeypatch.setattr(dpcomm.binary_sums, "run_game", shifted)
        code, path = run(tmp_path, "binary-sums", dict(BINARY_SUMS, receiver_modes=["naive"]))
        assert code == EXIT_INFEASIBLE
        _, header, rows = parse_csv(path)
        gaps = [abs(float(r[header.index("bias_vs_analytic")])) /
                float(r[header.index("mc_std_error")]) for r in rows]
        assert len(rows) == 5
        assert gaps[2] > 3.0 and all(gap <= 3.0 for k, gap in enumerate(gaps) if k != 2)


class TestEquilibrium:
    def test_all_starts_reach_the_line(self, tmp_path):
        code, path = run(tmp_path, "equilibrium", EQUILIBRIUM)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        assert all(r[header.index("converged")] == "True" for r in rows)
        assert all(abs(float(r[header.index("p_sum")]) - 0.5) <= 1e-6 for r in rows)
        assert all(r[header.index("is_potential_game")] == "True" for r in rows)

    @pytest.mark.parametrize("seed", [0, 1, 2**64, 10**40], ids=["0", "1", "2**64", "10**40"])
    def test_starts_are_the_seeded_random_draws(self, tmp_path, seed):
        # Start k is the pair (2k, 2k + 1) of random.Random(seed)'s floats.
        config = json.loads((REPO / "configs" / "equilibrium.json").read_text())
        assert run(tmp_path, "equilibrium", config, seed=seed)[0] == EXIT_OK
        _, header, rows = parse_csv(tmp_path / "out" / "equilibrium.csv")
        starts = [float(r[header.index(col)]) for r in rows for col in ("start_p1", "start_p2")]
        oracle = random.Random(seed)
        assert starts == [oracle.random() for _ in range(2 * config["num_starts"])]

    def test_uneven_weights_not_potential(self, tmp_path):
        config = dict(EQUILIBRIUM, benefit_weights=[1.0, 2.0], num_starts=2)
        code, path = run(tmp_path, "equilibrium", config)
        _, header, rows = parse_csv(path)
        assert all(r[header.index("is_potential_game")] == "False" for r in rows)
        assert abs(float(rows[0][header.index("max_cross_deviation")]) - 1.0) <= 0.01


class TestMultiRound:
    def test_verified_instance(self, tmp_path):
        code, path = run(tmp_path, "multi-round", MULTI_ROUND)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        summary = [r for r in rows if r[header.index("record")] == "summary"][0]
        assert summary[header.index("is_mpg")] == "True"
        assert float(summary[header.index("max_violation")]) <= 1e-12
        trace = [float(r[header.index("potential")]) for r in rows
                 if r[header.index("record")] == "potential_trace"]
        assert trace == sorted(trace)
        assert any(r[header.index("record")] == "policy" for r in rows)

    def test_perturbed_reward_detected(self, tmp_path):
        config = dict(MULTI_ROUND, team_weights=[1.5, 1.0])
        code, path = run(tmp_path, "multi-round", config)
        assert code == EXIT_INFEASIBLE
        _, header, rows = parse_csv(path)
        summary = [r for r in rows if r[header.index("record")] == "summary"][0]
        assert summary[header.index("is_mpg")] == "False"
        assert float(summary[header.index("max_violation")]) > 0.0

    def test_horizon_zero(self, tmp_path):
        config = dict(MULTI_ROUND, horizon=0)
        code, path = run(tmp_path, "multi-round", config)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        assert not [r for r in rows if r[header.index("record")] == "potential_trace"]

    def test_spend_offered_on_the_key_is_accepted(self, tmp_path, capsys):
        # After 3.3 - 1.0000000005 - 1.0000000005 - 1.0 the saving is
        # 0.29999999899999974, its key 0.299999999: the lattice offered the
        # spend 0.3 on the key, and the rollout used to reject it on the raw
        # saving with "agent 0's spend 0.3 exceeds saving 0.3" and exit 1.
        config = {"num_agents": 1, "horizon": 4, "reward_alpha": -0.3, "reward_beta": 0.0,
                  "initial_savings": [3.3], "spend_grid": [0.0, 0.3, 1.0, 1.0000000005],
                  "privacy_grid": [0.0]}
        code, path = run(tmp_path, "multi-round", config)
        assert code == EXIT_OK and capsys.readouterr().err == ""
        assert sorted(os.listdir(path.parent)) == ["multi_round.csv"]

    def test_rollout_steps_the_lattice(self, tmp_path, capsys):
        # The lattice steps 1.2999999995 (key 1.3) to 1.0 and 0.7. The rollout
        # used to step the raw saving to 0.9999999995 (key 0.999999999), find
        # no action there and exit 1.
        config = {"num_agents": 1, "horizon": 3, "reward_alpha": 0.0, "reward_beta": 1.0,
                  "initial_savings": [1.2999999995], "spend_grid": [0.0, 0.3],
                  "privacy_grid": [0.5]}
        code, path = run(tmp_path, "multi-round", config)
        assert code == EXIT_OK and capsys.readouterr().err == ""
        _, header, rows = parse_csv(path)
        savings = {float(r[header.index("saving")]) for r in rows
                   if r[header.index("record")] == "policy"}
        assert savings == {1.3, 1.0, 0.7}

    def test_overflowing_reward_sum_is_one_line(self, tmp_path, capsys):
        config = {"num_agents": 1, "horizon": 2, "reward_alpha": 1e308, "reward_beta": 1e308,
                  "initial_savings": [1.0], "spend_grid": [0.0, 1.0], "privacy_grid": [1.0]}
        code, path = run(tmp_path, "multi-round", config)
        assert code == EXIT_USAGE
        assert not path.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "reward_alpha, reward_beta or team_weights overflow a reward sum" in err[0]


class TestSender:
    def test_dominance_columns(self, tmp_path):
        code, path = run(tmp_path, "sender", SENDER)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        for row in rows:
            aware = float(row[header.index("aware_kl")])
            oblivious = float(row[header.index("oblivious_kl")])
            gap = float(row[header.index("gd_vs_closed_form")])
            assert aware <= oblivious
            assert abs(gap) <= 1e-6
        zero_noise = rows[0]
        assert float(zero_noise[header.index("oblivious_kl")]) == 0.0
        assert float(zero_noise[header.index("aware_kl")]) == 0.0

    def test_defaults_are_the_library_defaults(self, tmp_path, monkeypatch):
        # A config without gd_steps and gd_learning_rate runs every descent with
        # aware_optimum_gd's defaults; the arguments are recorded, since a
        # larger step cap gives the same table wherever every row settles first.
        calls = []
        real = diagonal_sender._diagonal_descent

        def recording(*args):
            calls.append(args[-2:])  # the step cap and the learning rate
            return real(*args)

        monkeypatch.setattr(diagonal_sender, "_diagonal_descent", recording)
        code, _ = run(tmp_path, "sender", {"dim": 2, "noise_vars": [0.0, 0.5]})
        defaults = inspect.signature(aware_optimum_gd).parameters
        assert code == EXIT_OK
        assert calls == [(defaults["steps"].default, defaults["learning_rate"].default)] * 2

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_the_oblivious_message_has_one_kl(self, tmp_path, dim):
        # At learning rate 0 the descent sends the oblivious message, so gd_kl
        # is oblivious_kl; the closed form used to take another kernel, and 16
        # of these 48 pairs differed in the last bits.
        config = {"dim": dim, "noise_vars": [0.0, 0.1, 0.3, 0.5, 1.0, 2.5],
                  "gd_learning_rate": 0.0}
        code, path = run(tmp_path, "sender", config)
        assert code == EXIT_INFEASIBLE  # the noisy rows miss the aware optimum
        _, header, rows = parse_csv(path)
        assert len(rows) == 6
        assert all(row[header.index("gd_kl")] == row[header.index("oblivious_kl")] for row in rows)

    def test_gd_far_from_closed_form_exits_2(self, tmp_path):
        # Too large a step that never trips the divergence check: the table
        # is written, but the oracle gap (about 45.6) fails the 1e-6 gate.
        config = dict(SENDER, gd_learning_rate=100.0, gd_steps=200)
        code, path = run(tmp_path, "sender", config)
        assert code == EXIT_INFEASIBLE
        _, header, rows = parse_csv(path)
        gaps = [float(row[header.index("gd_vs_closed_form")]) for row in rows]
        assert max(gaps) > 1.0

    def test_diverging_gd_exits_2_without_traceback(self, tmp_path, capsys):
        config = {"dim": 1, "target_mean": [1.0], "noise_vars": [0.1],
                  "gd_learning_rate": 50.0}
        code, path = run(tmp_path, "sender", config)
        assert code == EXIT_INFEASIBLE
        assert not path.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "reduce the learning rate" in err[0]

    def test_lowest_diverging_row_is_reported(self, tmp_path, capsys):
        # Run alone, the 0.5 row fails first (10 rising steps by step 12) and
        # the 0.0 row later (an overflow at step 27). The 0.0 row comes first in
        # the table, so its error is reported, as when the rows ran one by one.
        config = {"dim": 1, "target_mean": [0.1], "target_variances": [0.249],
                  "noise_vars": [0.1, 0.0, 0.5], "gd_steps": 200, "gd_learning_rate": 0.5}
        code, path = run(tmp_path, "sender", config)
        assert code == EXIT_INFEASIBLE
        assert not path.exists()
        assert capsys.readouterr().err == (
            "dpcomm sender: a step overflowed the iterate; reduce the learning rate\n")

    def test_non_finite_kls_are_left_out_of_the_svg(self, tmp_path):
        # The 1e300 row's KLs overflow to inf and its gap is NaN; the SVG used
        # to carry the point "590.00,nan". The table keeps the values.
        config = {"dim": 1, "target_variances": [1e-9], "noise_vars": [0.1, 1e300], "svg": "s.svg"}
        code, path = run(tmp_path, "sender", config)
        assert code == EXIT_INFEASIBLE
        _, header, rows = parse_csv(path)
        assert rows[1][header.index("aware_kl")] == "inf"
        assert rows[1][header.index("gd_vs_closed_form")] == "nan"
        svg = (path.parent / "s.svg").read_text()
        points = re.findall(r'points="([^"]*)"', svg)
        assert points == ["50.00,350.00", "50.00,50.00"]
        assert not re.search(r"nan|inf", svg.split("-->", 1)[1])

    @pytest.mark.parametrize("series", [
        {"a": ([0.0, 1.0], [-1e308, 1e308])}, {"a": ([-1e308, 1e308], [0.0, 1.0])},
    ], ids=["y-range", "x-range"])
    def test_span_beyond_the_float_range_is_plotted(self, series):
        # Finite values 2e308 apart used to give the point "590.00,nan" (y) or
        # "nan,50.00" (x): the span overflowed to inf.
        svg = line_plot_svg(series, "x", "y", {})
        assert re.findall(r'points="([^"]*)"', svg) == ["50.00,350.00 590.00,50.00"]


#: Sender configs that fail, with the exit code and the one stderr line they
#: gave when the table was computed with numpy (gaussian_sender); the numpy-free
#: table must give the same. At the overflowing mean step, numpy also printed
#: RuntimeWarnings before the line, which no longer appear.
SENDER_FAILURES = [
    ('{"dim": 1, "target_variances": [NaN], "noise_vars": [0.5]}', 1,
     "config error: line 1: NaN is not a JSON number"),
    ('{"dim": 2, "target_variances": [1.0, 1e999], "noise_vars": [0.5]}', 1,
     "mean and covariance must be finite, got mean [0.0, 0.0] and covariance "
     "[[1.0, 0.0], [0.0, inf]]"),
    ('{"dim": 2, "target_mean": [-1e999, 0.0], "noise_vars": [0.5]}', 1,
     "mean and covariance must be finite, got mean [-inf, 0.0] and covariance "
     "[[1.0, 0.0], [0.0, 1.0]]"),
    ('{"dim": 1, "target_variances": [' + "9" * 401 + '], "noise_vars": [0.5]}', 1,
     "mean and covariance must be finite, got mean [0.0] and covariance [[inf]]"),
    ('{"dim": 2, "target_variances": [1.0, -0.5], "noise_vars": [0.5]}', 1,
     "covariance has negative eigenvalue -0.5"),
    ('{"dim": 2, "target_variances": [1.0, -1e-14], "noise_vars": [0.5]}', 1,
     "target covariance must be positive-definite (min eigenvalue 0 < 1e-09)"),
    ('{"dim": 2, "target_variances": [1.0, 0.0], "noise_vars": [0.5]}', 1,
     "target covariance must be positive-definite (min eigenvalue 0 < 1e-09)"),
    ('{"dim": 1, "target_variances": [-0.0], "noise_vars": [0.5]}', 1,
     "target covariance must be positive-definite (min eigenvalue 0 < 1e-09)"),
    ('{"dim": 1, "target_variances": [1e-320], "noise_vars": [0.5]}', 1,
     "target covariance must be positive-definite (min eigenvalue 1e-320 < 1e-09)"),
    ('{"dim": 2, "target_variances": [1e-08, 1000000000.0], "noise_vars": [0.5]}', 1,
     "q covariance must be positive-definite"),
    ('{"dim": 1, "noise_vars": [0.5, -0.1]}', 1, "noise_var must be finite and >= 0, got -0.1"),
    ('{"dim": 1, "noise_vars": [1e999]}', 1, "noise_var must be finite and >= 0, got inf"),
    ('{"dim": 1, "target_variances": [1e308], "noise_vars": [1e308]}', 1,
     "noise_var plus the largest target variance must be finite, got 1e+308 + 1e+308"),
    ('{"dim": 1, "target_variances": [0.0], "noise_vars": [-1.0]}', 1,
     "noise_var must be finite and >= 0, got -1.0"),
    ('{"dim": 1, "target_variances": [0.0], "noise_vars": [1.0, -1.0]}', 1,
     "target covariance must be positive-definite (min eigenvalue 0 < 1e-09)"),
    ('{"dim": 1, "noise_vars": [0.5], "gd_steps": 0}', 1,
     "steps must be an integer >= 1, got 0"),
    ('{"dim": 1, "noise_vars": [0.5], "gd_steps": 2.5}', 1,
     "steps must be an integer >= 1, got 2.5"),
    ('{"dim": 1, "noise_vars": [0.5], "gd_learning_rate": -0.1}', 1,
     "learning_rate must be finite and >= 0, got -0.1"),
    ('{"dim": 1, "noise_vars": [0.5], "gd_learning_rate": 1e999}', 1,
     "learning_rate must be finite and >= 0, got inf"),
    ('{"dim": 1, "target_mean": [1.0], "noise_vars": [0.1], "gd_learning_rate": 50.0}', 2,
     "objective increased for 10 consecutive steps; reduce the learning rate"),
    ('{"dim": 1, "target_mean": [0.1], "target_variances": [0.249], "noise_vars": '
     '[0.1, 0.0, 0.5], "gd_steps": 200, "gd_learning_rate": 0.5}', 2,
     "a step overflowed the iterate; reduce the learning rate"),
    ('{"dim": 2, "target_mean": [1e+300, -1e+300], "noise_vars": [0.2], '
     '"gd_learning_rate": 10.0}', 2, "a step overflowed the iterate; reduce the learning rate"),
    ('{"dim": 2, "target_variances": [1.0], "noise_vars": [0.5]}', 1,
     "config error: target_mean and target_variances must have length dim = 2"),
]

#: Sender configs whose table is written but fails the oracle gate (exit 2),
#: with the rows numpy's table gave.
SENDER_GATE_FAILURES = [
    ('{"dim": 2, "noise_vars": [0.0, 0.5], "gd_steps": 200, "gd_learning_rate": 100.0}',
     ["0.0,0.0,0.0,0.0,0.0",
      "0.5,0.09453489189183562,0.0,45.57802666371869,45.57802666371869"]),
    ('{"dim": 2, "noise_vars": [0.5], "gd_learning_rate": 0.0}',
     ["0.5,0.09453489189183562,0.0,0.09453489189183562,0.09453489189183562"]),
]


class TestSenderFailures:
    @pytest.mark.parametrize("text,code,line", SENDER_FAILURES)
    def test_error_line_unchanged(self, tmp_path, capsys, text, code, line):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sender", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        assert capsys.readouterr().err == f"dpcomm sender: {line}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text,rows", SENDER_GATE_FAILURES)
    def test_gate_failure_rows_unchanged(self, tmp_path, capsys, text, rows):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["sender", "--config", str(cfg), "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert capsys.readouterr().err == ""
        _, header, got = parse_csv(tmp_path / "sender.csv")
        assert [",".join(row) for row in got] == rows


class TestHarness:
    @pytest.mark.parametrize("command,config", [
        ("calibrate", CALIBRATE),
        ("binary-sums", dict(BINARY_SUMS, trials=20000)),
        ("equilibrium", dict(EQUILIBRIUM, num_starts=3)),
        ("multi-round", MULTI_ROUND),
        ("sender", dict(SENDER, gd_steps=500)),
    ])
    def test_byte_identical_reruns(self, tmp_path, command, config):
        _, path1 = run(tmp_path / "r1", command, config, seed=7)
        _, path2 = run(tmp_path / "r2", command, config, seed=7)
        assert path1.read_bytes() == path2.read_bytes()

    def test_json_format(self, tmp_path):
        code, path = run(tmp_path, "equilibrium", dict(EQUILIBRIUM, num_starts=2), fmt="json")
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert set(doc) == {"provenance", "columns", "rows"}
        assert doc["provenance"]["seed"] == 0
        assert len(doc["provenance"]["config_sha256"]) == 64

    def test_svg_written(self, tmp_path):
        config = dict(MULTI_ROUND, svg="trace.svg")
        _, path = run(tmp_path, "multi-round", config)
        svg = (path.parent / "trace.svg").read_text()
        assert svg.startswith("<svg")
        assert "config_sha256=" in svg

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DPCOMM_OUT", str(tmp_path / "env_out"))
        cfg = write_config(tmp_path / "c.json", dict(EQUILIBRIUM, num_starts=1))
        code = main(["equilibrium", "--config", cfg])
        assert code == EXIT_OK
        assert (tmp_path / "env_out" / "equilibrium.csv").exists()

    @pytest.mark.parametrize("argv, named", [
        (["calibrate"], "--config"),
        (["calibrate", "--config", "x", "--seed", "abc"], "abc"),
        (["no-such-command", "--config", "x"], "no-such-command"),
        (["calibrate", "--config", "x", "--format", "xml"], "xml"),
        (["calibrate", "--config", "x", "--jobs", "2"], "unrecognized arguments: --jobs 2"),
    ], ids=["no-config", "bad-seed", "bad-command", "bad-format", "jobs"])
    def test_usage_error_says_what_is_wrong(self, capsys, argv, named):
        # The usage used to be printed alone, without argparse's message.
        assert main(argv) == EXIT_USAGE
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert last.startswith("dpcomm: error: ") and named in last

    @pytest.mark.parametrize("command", SMALL)
    def test_negative_seed_exits_1(self, tmp_path, capsys, command):
        # calibrate, multi-round and sender used to run and write seed=-1.
        code, path = run(tmp_path, command, SMALL[command], seed=-1)
        assert code == EXIT_USAGE and not path.exists()
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "seed" in err[0]

    @pytest.mark.parametrize("name", ["../up.svg", "{tmp}/abs.svg", "sub/x.svg", "", ".", "..",
                                      "a\0.svg"],
                             ids=["parent", "absolute", "subdirectory", "empty", "dot", "dot-dot",
                                  "nul"])
    def test_svg_must_be_a_plain_file_name(self, tmp_path, capsys, name):
        # Each used to write outside --out, or end in a traceback after the table.
        name = name.format(tmp=tmp_path)
        cfg = tmp_path / "config.json"
        cfg.write_text('{"dim": 1,\n "noise_vars": [0.5],\n "svg": ' + json.dumps(name) + "}")
        before = sorted(tmp_path.rglob("*"))
        assert main(["sender", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"dpcomm sender: config error: line 3: config key 'svg' "
                                           f"must be a plain file name, got {json.dumps(name)}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_svg_named_like_the_table_exits_1(self, tmp_path, capsys):
        # The SVG used to replace the table, with exit 0.
        code, path = run(tmp_path, "sender", dict(SMALL["sender"], svg="sender.csv"))
        assert code == EXIT_USAGE and not path.parent.exists()
        assert capsys.readouterr().err == (
            "dpcomm sender: config error: svg 'sender.csv' is the result table's file name\n")

    @pytest.mark.parametrize("config_name,fmt,svg", [
        ("sender.json", "json", "s.svg"), ("plot.svg", "csv", "plot.svg")], ids=["table", "svg"])
    def test_output_that_is_the_config_exits_1(self, tmp_path, capsys, config_name, fmt, svg):
        # `--out configs --format json` used to replace configs/sender.json.
        cfg = write_config(tmp_path / config_name, dict(SMALL["sender"], svg=svg))
        text = pathlib.Path(cfg).read_text()
        argv = ["sender", "--config", cfg, "--out", str(tmp_path), "--format", fmt]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == (f"dpcomm sender: config error: output {cfg} would "
                                           f"replace the config file\n")
        assert pathlib.Path(cfg).read_text() == text and os.listdir(tmp_path) == [config_name]

    def test_out_that_is_a_file_exits_1(self, tmp_path, capsys):
        # A FileExistsError used to escape main.
        cfg = write_config(tmp_path / "config.json", SMALL["sender"])
        out = tmp_path / "taken"
        out.write_text("kept")
        assert main(["sender", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"dpcomm sender: cannot write {out}: File exists\n"
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("taken", ["s.svg", "sender.csv"], ids=["svg", "table"])
    def test_failed_write_leaves_no_output(self, tmp_path, capsys, taken):
        # A directory in the place of the SVG used to leave the table behind.
        cfg = write_config(tmp_path / "config.json", SMALL["sender"])
        out = tmp_path / "out"
        (out / taken).mkdir(parents=True)
        assert main(["sender", "--config", cfg, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == (f"dpcomm sender: cannot write {out / taken}: "
                                           "Is a directory\n")
        assert os.listdir(out) == [taken] and not os.listdir(out / taken)

    def test_config_that_is_a_list_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "config.json", [SMALL["sender"]])
        assert main(["sender", "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "dpcomm sender: config error: config document must be a JSON object\n")
        assert not (tmp_path / "out").exists()

    def test_row_of_the_wrong_arity_is_rejected(self):
        table = ResultTable(["a", "b", "c"])
        with pytest.raises(ValueError, match="row arity 2 does not match 3 columns"):
            table.append(1, 2)
        assert table.rows == []

    def test_json_cell_of_a_non_finite_float_is_its_csv_text(self):
        table = ResultTable(["x"])
        for value in (math.inf, -math.inf, math.nan, 1.5):
            table.append(value)
        _, _, rows = parse_csv_text(table.to_csv())
        doc = json.loads(table.to_json(), parse_constant=reject_constant)
        assert doc["rows"] == [["inf"], ["-inf"], ["nan"], [1.5]]
        assert [str(row[0]) for row in doc["rows"]] == [row[0] for row in rows]

    def test_config_that_is_not_utf8_exits_1(self, tmp_path, capsys):
        # Its decoding error used to be printed without the path or "config error".
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b'{"dim": 1, "noise_vars": [0.5], "svg": "\xe9.svg"}')
        assert main(["sender", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"dpcomm sender: config error: cannot read config {cfg}: 'utf-8' "
                              "codec can't decode byte 0xe9")
        assert len(err.splitlines()) == 1 and not (tmp_path / "out").exists()

    def test_config_is_utf8_in_an_ascii_locale(self, tmp_path):
        # The config used to be read in the locale's encoding.
        cfg = tmp_path / "config.json"
        cfg.write_bytes('{"d\u00edm": 1}'.encode())
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"), LC_ALL="C", PYTHONUTF8="0",
                   PYTHONCOERCECLOCALE="0")
        done = subprocess.run([sys.executable, "-m", "dpcomm", "sender", "--config", str(cfg),
                               "--out", str(tmp_path / "out")], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == EXIT_USAGE
        assert done.stderr == "dpcomm sender: config error: line 1: unknown config key 'd\\xedm'\n"

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_json_number_exits_1(self, tmp_path, capsys, literal):
        # "svg" names a file with the literal in it: a string is not a number.
        cfg = tmp_path / "config.json"
        cfg.write_text('{"dim": 1,\n "svg": "NaN-Infinity.svg",\n'
                       f' "target_mean": [{literal}],\n "noise_vars": [0.5]}}')
        code = main(["sender", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"line 3: {literal} is not a JSON number" in err

    def test_duplicate_key_exits_1(self, tmp_path, capsys):
        # The later value used to win: this ran 2000 trials and exited 0.
        cfg = tmp_path / "config.json"
        cfg.write_text('{"bits": [1,0,1], "epsilons": [1.0], "trials": 1.5, "trials": 2000}')
        code = main(["binary-sums", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE and not (tmp_path / "out").exists()
        assert capsys.readouterr().err == ("dpcomm binary-sums: config error: line 1: "
                                           "duplicate config key 'trials'\n")

    def test_duplicate_key_names_the_line_of_the_repeat(self, tmp_path, capsys):
        # This used to fail the kind check on "x" and name line 3, the first "trials".
        cfg = tmp_path / "config.json"
        cfg.write_text('{"bits": [1,0,1],\n "epsilons": [1.0],\n "trials": 2000,\n "trials": "x"}')
        code = main(["binary-sums", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("dpcomm binary-sums: config error: line 4: "
                                           "duplicate config key 'trials'\n")

    @pytest.mark.parametrize("lines,error", [
        ('"trials": 2000,\n "tri\\u0061ls": 3000', "duplicate config key 'trials'"),
        ('"receiver_modes": ["aware"],\n "tri\\u0061ls": "x"',
         "config key 'trials' must be a number, got \"x\""),
        ('"trials": 2000,\n "extr\\u0061": 1', "unknown config key 'extra'"),
    ], ids=["duplicate", "kind", "unknown"])
    def test_escaped_key_names_its_line(self, tmp_path, capsys, lines, error):
        # A key was looked for in its literal spelling, so these named no line.
        cfg = tmp_path / "config.json"
        cfg.write_text('{"bits": [1,0,1],\n "epsilons": [1.0],\n ' + lines + '}')
        code = main(["binary-sums", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == f"dpcomm binary-sums: config error: line 4: {error}\n"

    def test_key_after_an_escaped_quote_names_its_line(self, tmp_path, capsys):
        # The key "a\"trials" used to count as a "trials", so line 3 was named.
        cfg = tmp_path / "config.json"
        cfg.write_text('{"bits": [1,0,1],\n "a\\"trials": 1,\n "trials": 2000,\n "trials": 3}')
        code = main(["binary-sums", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == ("dpcomm binary-sums: config error: line 4: "
                                           "duplicate config key 'trials'\n")

    def test_json_writes_non_finite_kls_as_strings(self, tmp_path):
        # gd_kl and the gap overflow; the table used to hold two bare Infinity
        # literals, which no strict JSON parser (the CLI's config reader
        # included) accepts.
        config = {"dim": 2, "target_mean": [0.5, -1.0], "target_variances": [0.01, 1.0],
                  "noise_vars": [0.0], "gd_steps": 1}
        code, path = run(tmp_path, "sender", config, fmt="json")
        assert code == EXIT_INFEASIBLE
        doc = json.loads(path.read_text(), parse_constant=reject_constant)
        assert doc["rows"] == [[0.0, 0.0, 0.0, "inf", "inf"]]

    def test_bad_value_names_the_line_of_its_key(self, tmp_path, capsys):
        # The line used to be that of the first "dim" in the file, here a string value.
        cfg = tmp_path / "config.json"
        cfg.write_text('{\n "svg": "dim",\n "noise_vars": [0.5],\n "dim": "two"\n}')
        assert main(["sender", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_USAGE
        assert capsys.readouterr().err == ("dpcomm sender: config error: line 4: config key 'dim' "
                                           'must be a number, got "two"\n')


REPO = pathlib.Path(__file__).resolve().parents[1]

# Runs ``python -m dpcomm ARGS`` in this interpreter and then prints whether
# numpy was loaded and the exit code.
_FRESH_CLI = """
import runpy, sys
try:
    runpy.run_module("dpcomm", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print("numpy" in sys.modules, exc.code)
"""


# The same run, printing the dpcomm modules the command loaded.
_FRESH_CLI_MODULES = """
import runpy, sys
try:
    runpy.run_module("dpcomm", run_name="__main__", alter_sys=True)
except SystemExit:
    print(*sorted(name for name in sys.modules if name.startswith("dpcomm.")))
"""


def fresh_python(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()[-1]


def test_console_script_is_main():
    # The installed script calls sys.exit(main()); `python -m dpcomm` runs __main__.py.
    target = re.search(r'^dpcomm = "(.+)"$', (REPO / "pyproject.toml").read_text(), re.M)[1]
    assert importlib.metadata.EntryPoint("dpcomm", target, "console_scripts").load() is main


#: sha256 of every file the six shipped configs write at seed 0, per config.
#: A change that keeps the shipped outputs byte-identical keeps these.
SHIPPED_OUTPUTS = {
    "binary_sums": {
        "binary_sums.csv": "4ff270376f76750d54d315ffa368fb16ff3fcd9d4aa1dded8ca96e283cdefe96",
    },
    "calibrate": {
        "calibrate.csv": "ec1ee659eee89d9fbf224f979e15d2626c5cfb025858bf4b51a4fa8371c09da2",
        "calibrate.svg": "f3c10d3f056e0fd05e77fe550e3d8762005e1413ee1017ce8bc824498fcf8c8e",
    },
    "calibrate_episode": {
        "calibrate.csv": "a0b159203162b9b355ac55bc9d321de4b6ce30430e5a5e5a2eba1bd272f7fc5a",
    },
    "equilibrium": {
        "equilibrium.csv": "294903f24f3303fea6fec249a40b3ca015177de3849f4c0a2ebe70fc04edb821",
    },
    "multi_round": {
        "multi_round.csv": "59012360e1075d11363ec7a3e9d43115b7dd3e5de220d263760e2cad14cf8698",
        "potential_trace.svg": "ef4cc3f6466da4a0fd0e94811f2286cefab10254501b92fd63a4b0e2cf5ba5af",
    },
    "sender": {
        "sender.csv": "4c7d7ec14a0bf029ab5c83bd2391917085aa7915c972db6bb182809e3375c2b5",
        "sender_kl.svg": "2d94780ef9d86a5634afe89170a9fc13ac4aa5a9cba87237d478208b0de572e3",
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_OUTPUTS))
def test_shipped_outputs_unchanged(tmp_path, name):
    command = "calibrate" if name == "calibrate_episode" else name.replace("_", "-")
    argv = [command, "--config", str(REPO / "configs" / f"{name}.json"), "--seed", "0",
            "--out", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == EXIT_OK
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == SHIPPED_OUTPUTS[name]


def reject_constant(name):  # json.loads hook: NaN and +-Infinity are not JSON
    raise AssertionError(f"bare {name} in a JSON table")


@pytest.mark.parametrize("name", sorted(SHIPPED_OUTPUTS))
def test_json_cells_are_the_csv_cells(tmp_path, name):
    command = "calibrate" if name == "calibrate_episode" else name.replace("_", "-")
    tables = {}
    for fmt in ("csv", "json"):
        argv = [command, "--config", str(REPO / "configs" / f"{name}.json"), "--seed", "0",
                "--out", str(tmp_path / fmt), "--format", fmt]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == EXIT_OK
        path = tmp_path / fmt / f"{command.replace('-', '_')}.{fmt}"
        tables[fmt] = path.read_bytes().decode()
    _, header, rows = parse_csv_text(tables["csv"])
    doc = json.loads(tables["json"], parse_constant=reject_constant)
    assert doc["columns"] == header
    assert [["" if v is None else str(v) for v in row] for row in doc["rows"]] == rows


#: The configs of test_gaussian_sender's ``test_cli_configs_are_equal``, as
#: (target mean, target variances, noise levels, gd_steps, gd_learning_rate),
#: with the exit code and the sha256 of every file ``sender`` writes at seed 0.
#: The last three stop at a StepSizeError and write nothing.
SENDER_OUTPUTS = [
    pytest.param(([0.0, 0.0], [1.0, 1.0], [0.0, 0.1, 0.5, 1.0], 6000, 0.1), EXIT_OK,
                 {"sender.csv": "e56dff3c8ae9049b4004d414c29f53324cce4d0a2e21fd3398541b832d0845cc"},
                 id="shipped"),
    pytest.param(([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], 3000, 0.1), EXIT_OK,
                 {"sender.csv": "706001b298d26db267bbc581f547371274af9babecb4bb760b408c1a706fa10b"},
                 id="3000-steps"),
    pytest.param(([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], 500, 0.1), EXIT_OK,
                 {"sender.csv": "5db8408b3cd2273a8ba93bbb884a8b816bb8534a5be5a72f873d295d143eccbd"},
                 id="500-steps"),
    pytest.param(([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], 200, 100.0), EXIT_INFEASIBLE,
                 {"sender.csv": "5cc209b3e980b94a097c6bfef4f459a1c0fa5e56a1b230f376e5d385e25d720a"},
                 id="rate-100"),
    pytest.param(([0.0, 0.0], [1.0, 1.0], [0.5], 6000, 0.0), EXIT_INFEASIBLE,
                 {"sender.csv": "220d1181b20e44a73a24f07ce01ad74ed88de5b81550b068b5ee5e851ee04ab3"},
                 id="rate-0"),
    pytest.param(([1.0], [1.0], [0.1], 6000, 50.0), EXIT_INFEASIBLE,
                 {}, id="rate-50"),
    pytest.param(([0.1], [0.249], [0.1, 0.0, 0.5], 200, 0.5), EXIT_INFEASIBLE,
                 {}, id="overflow-3-levels"),
    pytest.param(([0.1], [0.249], [0.1, 0.5], 200, 0.5), EXIT_INFEASIBLE,
                 {}, id="overflow-2-levels"),
]


@pytest.mark.parametrize("args,code,files", SENDER_OUTPUTS)
def test_sender_outputs_unchanged(tmp_path, args, code, files):
    mean, variances, noise_vars, steps, learning_rate = args
    config = {"dim": len(mean), "target_mean": mean, "target_variances": variances,
              "noise_vars": noise_vars, "gd_steps": steps, "gd_learning_rate": learning_rate}
    out = tmp_path / "out"
    assert run(tmp_path, "sender", config)[0] == code
    written = sorted(out.iterdir()) if out.exists() else []
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written} == files


#: This module's calibrate, binary-sums, equilibrium and multi-round configs,
#: with the sha256 of every file each writes at seed 0; none gives an optional
#: tuning key, so the library defaults decide these outputs.
CONFIG_OUTPUTS = [
    pytest.param("calibrate", CALIBRATE, {
        "calibrate.csv": "0a7474faf1eda28cc046b55222c66e3b51431e233f40b52ad2e57ce36809eb03",
    }, id="calibrate"),
    pytest.param("binary-sums", BINARY_SUMS, {
        "binary_sums.csv": "7c262d3bf054fa90b8c4ffb7afb96d0b7dca52624eb85034ed4024f4938a6405",
    }, id="binary-sums"),
    pytest.param("binary-sums", {  # p != 1/2: the aware message values are not dyadic
        "bits": [1, 0, 1, 1, 0], "epsilons": [0.5, 1.0, 2.0, 3.0, 4.0], "trials": 50000,
    }, {
        "binary_sums.csv": "b12d9f7dc046ea5adcbb724656c76240c301a85e9a78451fdf2580eee7749a05",
    }, id="binary-sums-mixed-budgets"),
    pytest.param("equilibrium", EQUILIBRIUM, {
        "equilibrium.csv": "b2d0610e0304e98b4f89c98830f16c8f2dbcc9eca5ecf95558a9fa393dca6eac",
    }, id="equilibrium"),
    pytest.param("multi-round", MULTI_ROUND, {
        "multi_round.csv": "f534a50c35d691a49b255bd8ac45323230d1d00b2415b1f0abf67a5a0f64683b",
    }, id="multi-round"),
]


@pytest.mark.parametrize("command,config,files", CONFIG_OUTPUTS)
def test_config_outputs_unchanged(tmp_path, command, config, files):
    assert run(tmp_path, command, config)[0] == EXIT_OK
    written = sorted((tmp_path / "out").iterdir())
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written} == files


# Reaches every public name of binary_sums and mechanisms, builds an instance and
# takes its analytic outcome, then prints whether numpy was loaded.
_FRESH_LIBRARY = """
import sys, dpcomm
for name, module in dpcomm._EXPORTS.items():
    if module in ("binary_sums", "mechanisms"):
        getattr(dpcomm, name)
instance = dpcomm.BinarySumsInstance((1, 0, 1), (1.0, 2.0, float("inf")), "naive")
dpcomm.analytic_outcome(instance)
dpcomm.RrMechanism(dpcomm.rr_flip_prob(1.0))
print("numpy" in sys.modules)
"""


class TestNumpyFreeStart:
    """Only a Monte-Carlo game in binary-sums draws with numpy, so every other
    command never loads it, and neither do the library's binary_sums and
    mechanisms names until they compute on arrays; and each command loads only
    its own library modules."""

    def test_import_dpcomm_does_not_load_numpy(self):
        assert fresh_python("-c", "import sys, dpcomm; print('numpy' in sys.modules)") == "False"

    def test_import_rng_does_not_load_numpy(self):
        assert fresh_python("-c", "import sys, dpcomm.rng; print('numpy' in sys.modules)") == \
            "False"

    def test_library_names_load_no_numpy(self):
        assert fresh_python("-c", _FRESH_LIBRARY) == "False"

    def test_rejected_binary_sums_config_loads_no_numpy(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(dict(BINARY_SUMS, epsilons=[-1.0])))
        last = fresh_python("-c", _FRESH_CLI, "binary-sums", "--config", str(cfg),
                            "--out", str(tmp_path / "out"))
        assert last == "False 1"

    @pytest.mark.parametrize("command,config", [
        ("calibrate", "calibrate.json"),
        ("calibrate", "calibrate_episode.json"),
        ("equilibrium", "equilibrium.json"),
        ("multi-round", "multi_round.json"),
        ("sender", "sender.json"),
    ])
    def test_command_runs_without_numpy(self, tmp_path, command, config):
        last = fresh_python("-c", _FRESH_CLI, command, "--config", str(REPO / "configs" / config),
                            "--out", str(tmp_path))
        assert last == "False 0"

    @pytest.mark.parametrize("command,config,used,unused", [
        ("calibrate", "calibrate.json", "dpcomm.accountant",
         {"dpcomm.cgp", "dpcomm.multi_round", "dpcomm.binary_sums"}),
        ("multi-round", "multi_round.json", "dpcomm.multi_round",
         {"dpcomm.accountant", "dpcomm.cgp"}),
        ("sender", "sender.json", "dpcomm.diagonal_sender",
         {"dpcomm.gaussian_sender", "dpcomm.binary_sums"}),
    ])
    def test_command_loads_only_its_own_modules(self, tmp_path, command, config, used, unused):
        last = fresh_python("-c", _FRESH_CLI_MODULES, command, "--config",
                            str(REPO / "configs" / config), "--out", str(tmp_path))
        loaded = set(last.split())
        assert used in loaded  # the probe sees the module the command runs
        assert unused.isdisjoint(loaded)

    def test_binary_sums_still_loads_numpy(self, tmp_path):
        # The check above would pass vacuously if the probe could not see numpy.
        last = fresh_python("-c", _FRESH_CLI, "binary-sums", "--config",
                            str(REPO / "configs" / "binary_sums.json"), "--out", str(tmp_path))
        assert last == "True 0"


class TestValueChecks:
    """Values are checked by the library objects the commands build."""

    def run_raw(self, tmp_path, command, text):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        return main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])

    def test_overflowing_number_exits_1(self, tmp_path, capsys):
        # 1e999 parses to inf; reward_alpha = inf used to end in an AttributeError.
        text = json.dumps(MULTI_ROUND, indent=2).replace('"reward_alpha": 0.1',
                                                         '"reward_alpha": 1e999')
        assert self.run_raw(tmp_path, "multi-round", text) == EXIT_USAGE
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "reward_alpha" in err[0] and "inf" in err[0]

    def test_infinite_clip_norm_exits_1(self, tmp_path, capsys):
        text = json.dumps(CALIBRATE, indent=2).replace('"clip_norm": 1.0', '"clip_norm": 1e999')
        assert self.run_raw(tmp_path, "calibrate", text) == EXIT_USAGE
        assert "clip_norm" in capsys.readouterr().err

    def test_empty_list_exits_1(self, tmp_path, capsys):
        code, path = run(tmp_path, "binary-sums", dict(BINARY_SUMS, receiver_modes=[]))
        assert code == EXIT_USAGE and not path.exists()
        assert "receiver_modes" in capsys.readouterr().err

    def test_boolean_is_not_a_number(self, tmp_path, capsys):
        code, _ = run(tmp_path, "multi-round", dict(MULTI_ROUND, horizon=True))
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 3:" in err and "'horizon' must be a number, got true" in err

    def test_fractional_count_exits_1(self, tmp_path, capsys):
        code, _ = run(tmp_path, "binary-sums", dict(BINARY_SUMS, trials=1.5))
        assert code == EXIT_USAGE
        assert "trials must be an integer >= 2, got 1.5" in capsys.readouterr().err

    def test_one_trial_exits_1(self, tmp_path, capsys):
        # A one-trial game has no standard error to report; it used to report
        # cancellation noise and fail the 3-standard-error gate with exit 2.
        code, path = run(tmp_path, "binary-sums", {"bits": [1, 0], "epsilons": [1], "trials": 1})
        assert code == EXIT_USAGE and not path.exists()
        assert capsys.readouterr().err == (
            "dpcomm binary-sums: trials must be an integer >= 2, got 1\n")

    def test_integer_for_a_real_is_accepted(self, tmp_path):
        code, _ = run(tmp_path, "equilibrium", dict(EQUILIBRIUM, num_starts=2, tol=1))
        assert code == EXIT_OK

    def test_horizon_three_instance_verifies(self, tmp_path, capsys):
        # horizon 3: 4,194,304 joint policy profiles, which verify_mpg used to
        # refuse (exit 1) for exceeding its enumeration budget.
        shipped = pathlib.Path(__file__).resolve().parents[1] / "configs" / "multi_round.json"
        config = dict(json.loads(shipped.read_text()), horizon=3)
        code, path = run(tmp_path, "multi-round", config)
        assert code == EXIT_OK and not capsys.readouterr().err
        _, header, rows = parse_csv(path)
        summary = [r for r in rows if r[header.index("record")] == "summary"][0]
        assert summary[header.index("is_mpg")] == "True"
        assert float(summary[header.index("max_violation")]) == 0.0


# The schema the CLI used to check values with, before that moved into the
# library, kept as an oracle: whatever it rejected, except an integer given for
# a float key, must still exit 1.
class OldSchema:
    """A flat key -> (type, required, predicate) config schema."""

    def __init__(self, fields: dict):
        self.fields = fields

    def validate(self, config: dict) -> None:
        unknown = sorted(set(config) - set(self.fields))
        if unknown:
            raise ConfigError(f"unknown config key {unknown[0]!r}")
        for key, (types, required, check) in self.fields.items():
            if key not in config:
                if required:
                    raise ConfigError(f"missing required config key {key!r}")
                continue
            value = config[key]
            types = types if isinstance(types, tuple) else (types,)
            if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
                raise ConfigError(f"config key {key!r} has wrong type {type(value).__name__}")
            if check is not None and not check(value):
                raise ConfigError(f"config key {key!r} is invalid")


def _positive(x) -> bool:
    return x > 0


def _number_list(values) -> bool:
    return isinstance(values, list) and len(values) > 0 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    )


NUM = (int, float)

OLD_SCHEMAS = {
    "calibrate": OldSchema({
        "epsilons": (list, True, _number_list),
        "delta": (float, True, lambda v: 0 < v < 1),
        "gamma1": (float, True, lambda v: 0 < v < 1),
        "gamma2": (float, True, lambda v: 0 < v < 1),
        "num_agents": (int, True, _positive),
        "clip_norm": (NUM, True, _positive),
        "episode_lens": (list, False, lambda v: _number_list(v) and all(
            isinstance(t, int) and t >= 1 for t in v)),
        "svg": (str, False, None),
    }),
    "binary-sums": OldSchema({
        "bits": (list, True, lambda v: len(v) > 0 and all(b in (0, 1) for b in v)),
        "epsilons": (list, True, _number_list),
        "receiver_modes": (list, False, lambda v: all(m in ("naive", "aware") for m in v)),
        "trials": (int, True, lambda v: v >= 1),
    }),
    "equilibrium": OldSchema({
        "benefit_weights": (list, True, lambda v: _number_list(v) and len(v) == 2),
        "privacy_weights": (list, True, lambda v: _number_list(v) and len(v) == 2),
        "num_starts": (int, False, _positive),
        "grid_step": (float, False, _positive),
        "tol": (float, False, _positive),
    }),
    "multi-round": OldSchema({
        "num_agents": (int, True, _positive),
        "horizon": (int, True, lambda v: v >= 0),
        "discount": (NUM, False, lambda v: 0 < v <= 1),
        "reward_alpha": (NUM, True, None),
        "reward_beta": (NUM, True, None),
        "initial_savings": (list, True, _number_list),
        "spend_grid": (list, True, _number_list),
        "privacy_grid": (list, True, _number_list),
        "team_weights": (list, False, _number_list),
        "tol": (float, False, _positive),
        "max_sweeps": (int, False, _positive),
        "svg": (str, False, None),
    }),
    "sender": OldSchema({
        "dim": (int, True, _positive),
        "target_variances": (list, False, _number_list),
        "target_mean": (list, False, _number_list),
        "noise_vars": (list, True, lambda v: _number_list(v) and all(x >= 0 for x in v)),
        "gd_steps": (int, False, _positive),
        "gd_learning_rate": (float, False, _positive),
        "svg": (str, False, None),
    }),
}

# inf stands for the raw JSON number 1e999, which parses to inf; 10**400 is
# written out as 401 digits.
SCALARS = [0, -1, 0.5, 1.5, "1", True, False, None, [], ["a"], {}, float("inf"), float("-inf"),
           1e200, 1e-200, 10**400]
VALUES = st.one_of(
    st.sampled_from(SCALARS),
    st.lists(st.sampled_from([0, 1, -1, 0.5, 1.5, True, "1", None, float("inf")]),
             min_size=1, max_size=2),
)


@st.composite
def mutated_configs(draw, command):
    config = dict(SMALL[command])
    schema = OLD_SCHEMAS[command].fields
    action = draw(st.sampled_from(["set"] * 4 + ["drop", "add"]))
    if action == "set":
        config[draw(st.sampled_from(sorted(config)))] = draw(VALUES)
    elif action == "drop":
        del config[draw(st.sampled_from(sorted(k for k in config if schema[k][1])))]
    else:
        config["unknown_key"] = draw(VALUES)
    return config


def int_for_real(command, config) -> bool:
    """Whether the old schema rejects an integer given for a float-only key."""
    schema = OLD_SCHEMAS[command].fields
    return any(key in schema and schema[key][0] is float and type(value) is int
               for key, value in config.items())


@pytest.mark.parametrize("command", sorted(SMALL))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_config_never_escapes(command, data):
    config = data.draw(mutated_configs(command))
    try:
        OLD_SCHEMAS[command].validate(config)
        old_rejects = False
    except ConfigError:
        old_rejects = not int_for_real(command, config)
    text = json.dumps(config).replace("Infinity", "1e999")
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as fh:
            fh.write(text)
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            code = main([command, "--config", path, "--out", f"{tmp}/out"])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_INFEASIBLE)
    if old_rejects:
        assert code == EXIT_USAGE, text
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
        assert not caught, [str(w.message) for w in caught]
