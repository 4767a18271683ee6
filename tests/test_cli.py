import json

import pytest

from dpcomm.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main


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


def parse_csv(path):
    lines = path.read_bytes().decode().split("\r\n")  # RFC-4180 line endings
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

    def test_jobs_flag_does_not_change_output(self, tmp_path):
        config = dict(BINARY_SUMS, trials=100000)
        _, path1 = run(tmp_path / "a", "binary-sums", config)
        _, path2 = run(tmp_path / "b", "binary-sums", config, extra=("--jobs", "4"))
        assert path1.read_bytes() == path2.read_bytes()


class TestEquilibrium:
    def test_all_starts_reach_the_line(self, tmp_path):
        code, path = run(tmp_path, "equilibrium", EQUILIBRIUM)
        assert code == EXIT_OK
        _, header, rows = parse_csv(path)
        assert all(r[header.index("converged")] == "True" for r in rows)
        assert all(abs(float(r[header.index("p_sum")]) - 0.5) <= 1e-6 for r in rows)
        assert all(r[header.index("is_potential_game")] == "True" for r in rows)

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

    def test_usage_error_exit_code(self):
        assert main(["calibrate"]) == EXIT_USAGE  # --config missing
        assert main(["no-such-command", "--config", "x"]) == EXIT_USAGE

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
