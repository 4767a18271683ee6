"""Per-layer probes of the traced run and the per-layer metrics derived from spans.

Each probe calls one dpcomm layer's public functions a fixed number of times
through the tracer, on inputs drawn from the workload seed, and checks the
results like the workloads do. Timing metrics are the p50 and p90 of the
probe spans of one name; the two most expensive probes (the CLI subcommands
and ``verify_mpg``) run once and are skipped when the traced workload pass
already made the same calls.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import time
import xml.etree.ElementTree as ET
from functools import partial

import numpy as np

from dpcomm import (
    BinarySumsInstance,
    GaussianMessageDist,
    RrMechanism,
    SenderProblem,
    StrategyProfile,
    aware_optimum,
    aware_optimum_gd,
    best_response,
    best_response_policy,
    kl_gaussian,
    make_binary_sums_cgp,
    max_unilateral_gain,
    policy_value,
    rr_perturb,
    run_game,
    sample_message,
)
from dpcomm.cli import load_config
from dpcomm.gaussian_sender import objective_grad_diag
from dpcomm.multi_round import MrsConfig, lex_min_profile, rollout
from dpcomm.report import ResultTable, line_plot_svg
from dpcomm.rng import BLOCK_SIZE, substream

import oracles
import workloads
from spans import percentiles, self_times

LAYERS = ("accountant", "rng", "mechanisms", "binary_sums", "cgp", "multi_round",
          "gaussian_sender", "cli", "report")

GD_STEPS = 200  # aware_optimum_gd(steps=GD_STEPS) per gd span

#: (metric, span name, unit, scale from seconds); reported as .p50 and .p90
TIMED = (
    ("accountant.calibrate_step_us", "accountant.calibrate_step", "us", 1e6),
    ("accountant.calibrate_episode_us", "accountant.calibrate_episode", "us", 1e6),
    ("accountant.round_trip_us", "accountant.round_trip", "us", 1e6),
    ("rng.substream_us", "rng.substream", "us", 1e6),
    ("mechanisms.rr_block_us", "mechanisms.rr_perturb", "us", 1e6),
    ("binary_sums.block_ms.n5", "binary_sums.block.n5", "ms", 1e3),
    ("binary_sums.block_ms.n64", "binary_sums.block.n64", "ms", 1e3),
    ("binary_sums.run_game_ms", "binary_sums.run_game", "ms", 1e3),
    ("cgp.best_response_us", "cgp.best_response", "us", 1e6),
    ("cgp.find_nash_ms", "cgp.find_nash", "ms", 1e3),
    ("cgp.max_unilateral_gain_ms", "cgp.max_unilateral_gain", "ms", 1e3),
    ("cgp.is_potential_game_ms", "cgp.is_potential_game", "ms", 1e3),
    ("multi_round.rollout_us", "multi_round.rollout", "us", 1e6),
    ("multi_round.best_response_policy_us", "multi_round.best_response_policy", "us", 1e6),
    ("multi_round.find_mpg_nash_ms", "multi_round.find_mpg_nash", "ms", 1e3),
    ("gaussian_sender.gd_step_us.d2", "gaussian_sender.gd.d2", "us", 1e6 / GD_STEPS),
    ("gaussian_sender.gd_step_us.d8", "gaussian_sender.gd.d8", "us", 1e6 / GD_STEPS),
    ("gaussian_sender.gd_step_us.full_d4", "gaussian_sender.gd.full_d4", "us", 1e6 / GD_STEPS),
    ("gaussian_sender.kl_us.d2", "gaussian_sender.kl.d2", "us", 1e6),
    ("gaussian_sender.kl_us.d8", "gaussian_sender.kl.d8", "us", 1e6),
    ("gaussian_sender.kl_us.d32", "gaussian_sender.kl.d32", "us", 1e6),
    ("gaussian_sender.dist_build_us.d2", "gaussian_sender.dist_build.d2", "us", 1e6),
    ("gaussian_sender.dist_build_us.d32", "gaussian_sender.dist_build.d32", "us", 1e6),
    ("gaussian_sender.objective_grad_diag_us", "gaussian_sender.objective_grad_diag", "us", 1e6),
    ("gaussian_sender.sample_message_ms", "gaussian_sender.sample_message", "ms", 1e3),
    ("cli.load_config_ms", "cli.load_config", "ms", 1e3),
    ("report.to_csv_us", "report.to_csv", "us", 1e6),
    ("report.line_plot_svg_us", "report.line_plot_svg", "us", 1e6),
)

#: Single-call timings in seconds: (metric, span name).
SINGLE = tuple(
    (f"multi_round.verify_mpg_s.{name}", f"multi_round.verify_mpg.{name}")
    for name, _, _ in workloads.MPG_VERIFY
) + tuple((f"cli.{name}_s", f"cli.{name}") for _, name in workloads.CLI_RUNS)

JOBS_PROBES = (("n5", 5, 8, 7), ("n64", 64, 2, 5))  # (tag, N, blocks per call, pairs)

#: Exact work counts of one workload pass.
COUNTS = ("binary_sums.trials", "rng.substreams", "gaussian_sender.gd_steps",
          "multi_round.profiles", "cgp.nash_sweeps", "accountant.calibrations")


def computed_block_bytes(m: int = BLOCK_SIZE, n: int = 64) -> int:
    """Bytes of the arrays one aware-mode block materialises at N agents,
    computed from array sizes: per (trial, agent) a float64 uniform and an
    int64 coin, plus the m x N float64 messages, de-biased messages, guesses
    and squared guesses."""
    return m * n * (8 + 8 + 4 * 8)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for metric, _, unit, _ in TIMED:
        units[f"{metric}.p50"] = units[f"{metric}.p90"] = unit
    units.update({metric: "s" for metric, _ in SINGLE})
    for tag, *_ in JOBS_PROBES:
        units[f"binary_sums.jobs2_speedup.{tag}.p50"] = "ratio"
        units[f"binary_sums.jobs2_speedup.{tag}.iqr"] = "ratio"
    units.update({name: "count" for name in COUNTS})
    units["binary_sums.computed_block_bytes"] = "bytes"
    for layer in LAYERS:
        units[f"{layer}.oracle_failures"] = "count"
        units[f"{layer}.self_s"] = "s"
    units["bench.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.spans"] = "count"
    units["cli.import_s.p50"] = units["cli.import_s.p90"] = "s"
    return units


# --- probes ---------------------------------------------------------------

def probe_accountant(tr, tally, rng):
    for episode_len in (1, workloads.EPISODE_LEN):
        for _ in range(3):
            feasible = []
            for eps, gamma1, n_agents in workloads.CALIBRATION_GRID:
                tally.attempt("accountant", f"calibrate probe T={episode_len}", partial(
                    workloads.calibrate_op, tr, tally, feasible, eps, gamma1, n_agents, episode_len))


def _substreams(tr, seed):
    for agent in range(64):
        tr.call("rng.substream", substream, seed, agent, 0)
    first = substream(seed, 0, 0).random()
    if first != substream(seed, 0, 0).random() or first == substream(seed, 1, 0).random():
        return "substreams are not a deterministic function of their key"
    return None


def probe_rng(tr, tally, rng):
    for _ in range(5):
        tally.attempt("rng", "substream", partial(_substreams, tr, int(rng.integers(2**62))))


def _rr_block(tr, bit, p, seed, z):
    draws = tr.call("mechanisms.rr_perturb", rr_perturb, bit, RrMechanism(p), seed, BLOCK_SIZE)
    want = (1.0 - p) * bit + p / 2.0
    se = math.sqrt(want * (1.0 - want) / BLOCK_SIZE)
    return oracles.check_estimates([float(draws.mean())], [se], [want], z)


def probe_mechanisms(tr, tally, rng):
    cases = [(k % 2, (0.1, 0.5, 0.9)[k % 3]) for k in range(24)]
    z = oracles.bonferroni_z(len(cases))
    for bit, p in cases:
        tally.attempt("mechanisms", f"rr_perturb bit={bit} p={p}",
                      partial(_rr_block, tr, bit, p, int(rng.integers(2**62)), z))


def _instance(rng, n):
    bits = tuple(int(b) for b in rng.integers(0, 2, n))
    return BinarySumsInstance(bits, tuple(rng.uniform(0.5, 3.0, n)), "aware")


def _mc_call(tr, span, instance, trials, seed, z):
    out = tr.call(span, run_game, instance, trials, seed)
    return oracles.check_estimates(out.guesses, out.mc_std_errors,
                                   [float(sum(instance.bits))] * instance.num_agents, z)


def _jobs_pair(tr, tag, instance, trials, seed, jobs2_first, speedups):
    order = (2, 1) if jobs2_first else (1, 2)
    outs, times = {}, {}
    for jobs in order:
        start = time.perf_counter()
        outs[jobs] = tr.call(f"binary_sums.jobs{jobs}.{tag}", run_game, instance, trials, seed,
                             jobs=jobs)
        times[jobs] = time.perf_counter() - start
    speedups.append(times[1] / times[2])
    if outs[1] != outs[2]:
        return "jobs=1 and jobs=2 give different results"
    return None


def probe_binary_sums(tr, tally, rng, speedups):
    calls = [("binary_sums.block.n5", 5, 1)] * 10 + [("binary_sums.block.n64", 64, 1)] * 4 \
        + [("binary_sums.run_game", 5, workloads.SWEEP_BLOCKS)] * 6
    z = oracles.bonferroni_z(sum(n for _, n, _ in calls))
    for span, n, blocks in calls:
        tally.attempt("binary_sums", span, partial(
            _mc_call, tr, span, _instance(rng, n), blocks * BLOCK_SIZE,
            int(rng.integers(2**62)), z))
    for tag, n, blocks, pairs in JOBS_PROBES:
        instance = _instance(rng, n)
        speedups[tag] = []
        for k in range(pairs):
            tally.attempt("binary_sums", f"jobs pair {tag}", partial(
                _jobs_pair, tr, tag, instance, blocks * BLOCK_SIZE, int(rng.integers(2**62)),
                k % 2 == 1, speedups[tag]))


def _best_response(tr, game, opponent):
    got = tr.call("cgp.best_response", best_response, game, 0, opponent)
    return oracles.close(got, max(0.0, 0.5 - opponent), rel=1e-6)


def _unilateral(tr, game, p1):
    gain = tr.call("cgp.max_unilateral_gain", max_unilateral_gain, game,
                   StrategyProfile((p1, 0.5 - p1)))
    return None if gain <= oracles.NASH_GAIN_TOL else f"gain {gain!r} at a Nash profile"


def probe_cgp(tr, tally, rng):
    game = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
    uneven = make_binary_sums_cgp((1.0, 2.0), (1.0, 1.0))
    for opponent in rng.random(20):
        tally.attempt("cgp", "best_response", partial(_best_response, tr, game, float(opponent)))
    for _ in range(5):
        start = tuple(float(x) for x in rng.random(2))
        tally.attempt("cgp", "find_nash", partial(workloads.nash_op, tr, tally, game, start))
    for p1 in rng.uniform(0.0, 0.5, 5):
        tally.attempt("cgp", "max_unilateral_gain", partial(_unilateral, tr, game, float(p1)))
    for _ in range(2):
        for g, expect in ((game, True), (uneven, False)):
            tally.attempt("cgp", "is_potential_game", partial(workloads.potential_op, tr, g, expect))


def _reference_rollout(policies, cfg, start):
    """Independent discounted rollout: per-agent values and the potential."""
    savings = list(start.savings)
    values, phi = [0.0] * cfg.num_agents, 0.0
    for t in range(start.step, cfg.horizon):
        acts = [policies[j].actions[(round(savings[j], 9), t)] for j in range(cfg.num_agents)]
        team = sum((1.0 - a.privacy) * a.spend for a in acts)
        own = [cfg.reward_alpha * x + cfg.reward_beta * a.privacy for x, a in zip(savings, acts)]
        g = cfg.discount ** (t - start.step)
        for i in range(cfg.num_agents):
            values[i] += g * (cfg.team_weights[i] * team + own[i])
        phi += g * (team + sum(own))
        savings = [x - a.spend for x, a in zip(savings, acts)]
    return values, phi


def _rollout(tr, profile, cfg, start):
    values, phi = tr.call("multi_round.rollout", rollout, profile, cfg, start)
    want_values, want_phi = _reference_rollout(profile, cfg, start)
    for got, want in zip((*values, phi), (*want_values, want_phi)):
        problem = oracles.close(got, want, rel=1e-12)
        if problem:
            return f"rollout {problem}"
    return None


def _br_policy(tr, profile, agent, cfg, start):
    br = tr.call("multi_round.best_response_policy", best_response_policy, profile, agent, cfg,
                 start)
    deviated = profile[:agent] + [br] + profile[agent + 1:]
    if policy_value(deviated, agent, cfg, start) < policy_value(profile, agent, cfg, start) - 1e-12:
        return "best response is worse than the policy it replaces"
    return None


def probe_multi_round(tr, tally, rng, verify):
    cfg = MrsConfig(**workloads.MPG_NASH[0])
    start = cfg.start_state()
    profile = lex_min_profile(cfg, start)
    for _ in range(50):
        tally.attempt("multi_round", "rollout", partial(_rollout, tr, profile, cfg, start))
    for _ in range(3):
        for agent in range(cfg.num_agents):
            tally.attempt("multi_round", "best_response_policy",
                          partial(_br_policy, tr, profile, agent, cfg, start))
    for spec in workloads.MPG_NASH * 2:
        tally.attempt("multi_round", "find_mpg_nash", partial(workloads.mpg_nash_op, tr, tally, spec))
    if verify:
        for name, spec, expect in workloads.MPG_VERIFY:
            tally.attempt("multi_round", f"verify_mpg {name}",
                          partial(workloads.verify_op, tr, tally, name, spec, expect))


def _random_cov(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * rng.uniform(0.3, 3.0, size=d)) @ q.T


def _reference_kl(p, q):
    """KL(N_p || N_q) through eigenvalues and an explicit inverse."""
    q_inv = np.linalg.inv(q.cov)
    diff = p.mean - q.mean
    logdet_q = float(np.sum(np.log(np.linalg.eigvalsh(q.cov))))
    logdet_p = float(np.sum(np.log(np.linalg.eigvalsh(p.cov))))
    return 0.5 * (logdet_q - logdet_p + float(np.trace(q_inv @ p.cov)) + float(diff @ q_inv @ diff)
                  - p.dim)


def _gd(tr, span, problem, mode):
    sol = tr.call(span, aware_optimum_gd, problem, steps=GD_STEPS, learning_rate=0.1, mode=mode)
    best = aware_optimum(problem).kl
    if not (math.isfinite(sol.kl) and sol.kl >= best - 1e-12):
        return f"gd KL {sol.kl!r} below the closed-form optimum {best!r}"
    sent = GaussianMessageDist(sol.dist.mean, sol.dist.cov + problem.noise_var * np.eye(problem.dim))
    return oracles.close(sol.kl, _reference_kl(sent, problem.target))


def _kl(tr, span, p, q):
    return oracles.close(tr.call(span, kl_gaussian, p, q), _reference_kl(p, q))


def _dist_build(tr, span, mean, cov):
    dist = tr.call(span, GaussianMessageDist, mean, cov)
    gap = float(np.max(np.abs(dist.cov - cov)))
    return None if gap <= 1e-9 else f"built covariance differs by {gap!r}"


def _objective(tr, problem, mean, variances):
    value, _, _ = tr.call("gaussian_sender.objective_grad_diag", objective_grad_diag, problem,
                          mean, variances)
    sent = variances + problem.noise_var
    q = np.diag(problem.target.cov)
    want = 0.5 * float(np.sum(np.log(q / sent) + sent / q + (mean - problem.target.mean) ** 2 / q
                              - 1.0))
    return oracles.close(value, want)


def _sample(tr, dist, noise, seed, z):
    draws = tr.call("gaussian_sender.sample_message", sample_message, dist, noise, seed,
                    BLOCK_SIZE)
    se = np.sqrt(np.diag(dist.cov) + noise) / math.sqrt(BLOCK_SIZE)
    return oracles.check_estimates(draws.mean(axis=0).tolist(), se.tolist(), dist.mean.tolist(), z)


def probe_gaussian_sender(tr, tally, rng):
    def diag_problem(d):
        target = GaussianMessageDist.from_diagonal(rng.normal(size=d), rng.uniform(0.4, 2.0, d))
        return SenderProblem(target, 0.5)

    full = SenderProblem(GaussianMessageDist(rng.normal(size=4), _random_cov(rng, 4)), 0.5)
    for _ in range(3):
        for span, problem, mode in (("gaussian_sender.gd.d2", diag_problem(2), "diagonal"),
                                    ("gaussian_sender.gd.d8", diag_problem(8), "diagonal"),
                                    ("gaussian_sender.gd.full_d4", full, "full")):
            tally.attempt("gaussian_sender", span, partial(_gd, tr, span, problem, mode))
    for d in (2, 8, 32):
        for _ in range(30):
            p = GaussianMessageDist(rng.normal(size=d), _random_cov(rng, d))
            q = GaussianMessageDist(rng.normal(size=d), _random_cov(rng, d))
            tally.attempt("gaussian_sender", f"kl d={d}",
                          partial(_kl, tr, f"gaussian_sender.kl.d{d}", p, q))
    for d in (2, 32):
        for _ in range(30):
            tally.attempt("gaussian_sender", f"dist build d={d}", partial(
                _dist_build, tr, f"gaussian_sender.dist_build.d{d}", rng.normal(size=d),
                _random_cov(rng, d)))
    problem = diag_problem(4)
    for _ in range(30):
        tally.attempt("gaussian_sender", "objective_grad_diag", partial(
            _objective, tr, problem, rng.normal(size=4), rng.uniform(0.2, 2.0, 4)))
    dist = GaussianMessageDist(rng.normal(size=4), _random_cov(rng, 4))
    z = oracles.bonferroni_z(8 * 4)
    for _ in range(8):
        tally.attempt("gaussian_sender", "sample_message",
                      partial(_sample, tr, dist, 0.5, int(rng.integers(2**62)), z))


def _load_config(tr, command, name):
    path = os.path.join("configs", f"{name}.json")
    got = tr.call("cli.load_config", load_config, path, command)
    with open(path) as fh:
        want = json.load(fh)
    return None if got == want else "validated config differs from the document"


def probe_cli(tr, tally, out_dir, runs):
    for _ in range(5):
        for command, name in workloads.CLI_RUNS:
            tally.attempt("cli", f"load_config {name}", partial(_load_config, tr, command, name))
    if runs:
        workloads.cli_pass(workloads.cli_inputs(0), tr, tally, out_dir)


def _to_csv(tr, table):
    _, rows = oracles.parse_table(tr.call("report.to_csv", table.to_csv))
    if len(rows) != len(table.rows) or float(rows[-1]["c9"]) != table.rows[-1][9]:
        return "CSV does not round-trip the table"
    return None


def _svg(tr, series):
    text = tr.call("report.line_plot_svg", line_plot_svg, series, "x", "y", {"seed": 0})
    lines = list(ET.fromstring(text).iter("{http://www.w3.org/2000/svg}polyline"))
    return None if len(lines) == len(series) else f"{len(lines)} polylines for {len(series)} series"


def probe_report(tr, tally, rng):
    table = ResultTable([f"c{k}" for k in range(10)], provenance={"seed": 0})
    for row in rng.normal(size=(200, 10)):
        table.append(*row.tolist())
    xs = list(range(200))
    series = {f"s{k}": (xs, rng.normal(size=200).tolist()) for k in range(3)}
    for _ in range(20):
        tally.attempt("report", "to_csv", partial(_to_csv, tr, table))
        tally.attempt("report", "line_plot_svg", partial(_svg, tr, series))


def run_probes(tr, tally, seed, workload, out_dir) -> dict:
    """Run every probe; returns the jobs=1 / jobs=2 speed-ups per probe tag."""
    rng = np.random.default_rng(seed)
    speedups = {}
    probe_accountant(tr, tally, rng)
    probe_rng(tr, tally, rng)
    probe_mechanisms(tr, tally, rng)
    probe_binary_sums(tr, tally, rng, speedups)
    probe_cgp(tr, tally, rng)
    probe_multi_round(tr, tally, rng, verify=workload != "library")
    probe_gaussian_sender(tr, tally, rng)
    probe_cli(tr, tally, out_dir, runs=workload != "cli")
    probe_report(tr, tally, rng)
    return speedups


# --- metrics --------------------------------------------------------------

def per_layer_metrics(tr, pass_tally, tally, speedups, overhead_s) -> dict:
    """Per-layer metrics of the traced run (all but cli.import_s, which set-up gives)."""
    out = {}
    for metric, span, _, scale in TIMED:
        durations = tr.durations(span, {"probe"})
        p50, p90, _, _ = percentiles([d * scale for d in durations])
        out[f"{metric}.p50"], out[f"{metric}.p90"] = p50, p90
    for metric, span in SINGLE:
        durations = tr.durations(span, {"probe"}) or tr.durations(span, {"pass"})
        out[metric] = statistics.median(durations)
    for tag, values in speedups.items():
        p50, _, q1, q3 = percentiles(values)
        out[f"binary_sums.jobs2_speedup.{tag}.p50"] = p50
        out[f"binary_sums.jobs2_speedup.{tag}.iqr"] = q3 - q1
    for name in COUNTS:
        out[name] = pass_tally.counts[name]
    out["rng.substreams"] = tr.count("rng.substream", "pass")
    out["binary_sums.computed_block_bytes"] = computed_block_bytes()
    own = self_times(tr.spans)
    for layer in LAYERS:
        out[f"{layer}.oracle_failures"] = tally.failures[layer]
        out[f"{layer}.self_s"] = own.get(layer, 0.0)
    out["bench.self_s"] = own.get("bench", 0.0)
    out["trace.overhead_s"] = overhead_s
    out["trace.spans"] = len(tr.spans)
    return out
