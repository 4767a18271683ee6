"""The two benchmark workloads: input generation and one checked pass each.

``make_inputs(seed)`` turns the workload seed into plain data; dpcomm only
ever receives those generated inputs. ``run_pass`` performs the workload's
fixed list of operations through a tracer (``spans.Tracer`` or
``spans.NullTracer``) and checks every result against its oracle. Why each
workload exists is recorded beside it in ``BENCHMARK.json``.

The ``library`` workload runs three operation sets in one pass: ``mc_sweep``
(many narrow ``run_game`` calls), ``mc_wide`` (a few wide ones) and ``games``
(the pure-Python solvers). They share a workload so that each run is long
enough to average out the host's speed drift; the per-layer metrics of the
traced run tell them apart.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter
from functools import partial

from dpcomm import (
    BinarySumsInstance,
    CalibrationInfeasibleError,
    MechanismParams,
    PrivacyBudget,
    StrategyProfile,
    analytic_outcome,
    best_response_policy,
    calibrate_episode,
    calibrate_step,
    find_mpg_nash,
    find_nash,
    is_potential_game,
    make_binary_sums_cgp,
    naive_bias,
    policy_value,
    round_trip,
    run_game,
    verify_mpg,
)
from dpcomm.multi_round import MrsConfig, policy_space_size
from dpcomm.rng import BLOCK_SIZE

import oracles


class Tally:
    """Operations attempted, failures per layer and exact work counts of a run."""

    def __init__(self):
        self.ops = 0
        self.failures = Counter()
        self.counts = Counter()
        self.problems = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def attempt(self, layer: str, what: str, op):
        """Run one operation; it fails when it raises or its oracle objects."""
        self.ops += 1
        try:
            problem = op()
        except Exception as exc:  # a raising operation is a failed one; keep going
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failures[layer] += 1
            self.problems.append(f"{layer}: {what}: {problem}")


def eps_for_flip_prob(p: float) -> float:
    return math.log(2.0 / p - 1.0)


def _check_run_game(tr, tally, instance, trials, rng_seed, expected, z):
    out = tr.call("binary_sums.run_game", run_game, instance, trials, rng_seed)
    tally.counts["binary_sums.trials"] += trials
    return oracles.check_estimates(out.guesses, out.mc_std_errors, expected(instance), z)


def _analytic_guesses(tr, instance):
    return tr.call("binary_sums.analytic_outcome", analytic_outcome, instance).guesses


def _naive_guesses(tr, bits, p, instance):
    return [sum(bits) + tr.call("mechanisms.naive_bias", naive_bias, bits, i, p)
            for i in range(len(bits))]


# --- mc_sweep -------------------------------------------------------------

SWEEP_N = 5
SWEEP_PS = (0.1, 0.5, 0.9)
SWEEP_BLOCKS = 3


def mc_sweep_inputs(seed: int):
    rng = random.Random(seed)
    calls = []
    for mode in ("naive", "aware"):
        for bits in itertools.product((0, 1), repeat=SWEEP_N):
            for p in SWEEP_PS:
                calls.append((bits, p, mode, rng.getrandbits(63)))
    return calls


def mc_sweep_ops(inputs, tr, tally, z):
    trials = SWEEP_BLOCKS * BLOCK_SIZE
    for bits, p, mode, rng_seed in inputs:
        instance = BinarySumsInstance(bits, (eps_for_flip_prob(p),) * len(bits), mode)
        if mode == "aware":
            expected = partial(_analytic_guesses, tr)
        else:
            expected = partial(_naive_guesses, tr, bits, p)
        tally.attempt("binary_sums", f"run_game bits={bits} p={p} {mode}", partial(
            _check_run_game, tr, tally, instance, trials, rng_seed, expected, z))


# --- mc_wide --------------------------------------------------------------

WIDE_NS = (16, 64)
WIDE_BLOCKS = 6


def mc_wide_inputs(seed: int):
    rng = random.Random(seed)
    calls = []
    for n in WIDE_NS:
        for mode in ("naive", "aware"):
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            epsilons = tuple(rng.uniform(0.5, 3.0) for _ in range(n))
            calls.append((bits, epsilons, mode, rng.getrandbits(63)))
    return calls


def mc_wide_ops(inputs, tr, tally, z):
    expected = partial(_analytic_guesses, tr)
    for bits, epsilons, mode, rng_seed in inputs:
        instance = BinarySumsInstance(bits, epsilons, mode)
        tally.attempt("binary_sums", f"run_game N={len(bits)} {mode}", partial(
            _check_run_game, tr, tally, instance, WIDE_BLOCKS * BLOCK_SIZE, rng_seed,
            expected, z))


# --- games ----------------------------------------------------------------

_MPG_BASE = dict(num_agents=2, horizon=2, discount=1.0, reward_alpha=0.1, reward_beta=0.2,
                 initial_savings=(2.0, 2.0), spend_grid=(0.0, 1.0), privacy_grid=(0.0, 0.5))

#: verify_mpg instances under the 1e6-profile budget: (name, config, expected is_mpg).
MPG_VERIFY = (
    ("shipped", _MPG_BASE, True),                                          # 4,096 profiles
    ("grid3", {**_MPG_BASE, "privacy_grid": (0.0, 0.5, 1.0)}, True),       # 46,656
    ("n3", {**_MPG_BASE, "num_agents": 3, "initial_savings": (1.0, 1.0, 1.0)}, True),  # 32,768
    ("weighted", {**_MPG_BASE, "team_weights": (1.0, 2.0)}, False),        # 4,096
)

#: find_mpg_nash instances beyond the verify budget.
MPG_NASH = tuple(
    dict(num_agents=4, horizon=h, discount=0.9, reward_alpha=0.1, reward_beta=0.2,
         initial_savings=(3.0,) * 4, spend_grid=(0.0, 1.0, 2.0), privacy_grid=(0.0, 0.5, 1.0))
    for h in (5, 6)
)

NASH_STARTS = 20
CALIBRATION_GRID = tuple(itertools.product((2.0, 4.0, 8.0), (0.002, 0.005, 0.01), (200, 500, 1000)))
CALIBRATION_DELTA = 1e-4
CALIBRATION_FEASIBLE = 11  # feasible points of the grid (acceptance criterion 4)
EPISODE_LEN = 40


def games_inputs(seed: int):
    rng = random.Random(seed)
    return {"starts": [(rng.random(), rng.random()) for _ in range(NASH_STARTS)]}


def verify_op(tr, tally, name, spec, expect):
    cfg = MrsConfig(**spec)
    start = cfg.start_state()
    tally.counts["multi_round.profiles"] += policy_space_size(cfg, start)
    is_mpg, violation = tr.call(f"multi_round.verify_mpg.{name}", verify_mpg, cfg, start)
    return oracles.check_mpg(is_mpg, violation, expect)


def mpg_nash_op(tr, tally, spec):
    cfg = MrsConfig(**spec)
    start = cfg.start_state()
    res = tr.call("multi_round.find_mpg_nash", find_mpg_nash, cfg, start)
    if not res.converged:
        return f"no convergence in {res.sweeps} sweeps"
    trace = res.potential_trace
    if any(b < a - 1e-12 for a, b in zip(trace, trace[1:])):
        return "potential decreased along the best-response trace"
    profile = list(res.policies)
    for agent in range(cfg.num_agents):
        br = tr.call("multi_round.best_response_policy", best_response_policy,
                     profile, agent, cfg, start)
        deviated = profile[:agent] + [br] + profile[agent + 1:]
        gain = (tr.call("multi_round.policy_value", policy_value, deviated, agent, cfg, start)
                - tr.call("multi_round.policy_value", policy_value, profile, agent, cfg, start))
        if gain > 1e-12:
            return f"agent {agent} gains {gain!r} by deviating"
    return None


def nash_op(tr, tally, game, start):
    res = tr.call("cgp.find_nash", find_nash, game, StrategyProfile(start), tol=1e-8,
                  scan_step=1e-3)
    tally.counts["cgp.nash_sweeps"] += res.sweeps
    return oracles.check_equilibrium(*res.profile.p, res.converged, res.max_gain)


def potential_op(tr, game, expect):
    ok, deviation = tr.call("cgp.is_potential_game", is_potential_game, game, grid_step=0.05,
                            tol=1e-6)
    if ok != expect:
        return f"is_potential_game={ok} (deviation {deviation!r}), expected {expect}"
    if not expect and abs(deviation - 1.0) > 0.01:
        return f"uneven deviation {deviation!r}, expected 1.0"
    return None


def _order_bound_ok(result, gamma1):
    arg = 1.0 / (gamma1 * result.alpha * (1.0 + result.sigma_prime_sq))
    return result.alpha <= 2.0 * result.sigma_prime_sq * math.log(arg) / 3.0 + 1.0


def calibrate_op(tr, tally, feasible, eps, gamma1, n_agents, episode_len):
    budget = PrivacyBudget(eps, CALIBRATION_DELTA)
    params = MechanismParams(1.0, gamma1, 0.5, n_agents, episode_len=episode_len)
    episode = episode_len > 1
    solve, name = (calibrate_episode, "episode") if episode else (calibrate_step, "step")
    tally.counts["accountant.calibrations"] += 1
    try:
        result = tr.call(f"accountant.calibrate_{name}", solve, budget, params)
    except CalibrationInfeasibleError:
        return None
    feasible.append((eps, gamma1, n_agents))
    if not (result.feasible and result.sigma_prime_sq >= 0.7 and _order_bound_ok(result, gamma1)):
        return f"reported feasible but violates a constraint: {result}"
    back = tr.call("accountant.round_trip", round_trip, result, budget, params, episode=episode)
    return oracles.check_round_trip(eps, back.epsilon)


def _feasible_count(feasible):
    if len(feasible) != CALIBRATION_FEASIBLE:
        return f"{len(feasible)} feasible grid points, expected {CALIBRATION_FEASIBLE}"
    return None


def games_ops(inputs, tr, tally):
    for name, spec, expect in MPG_VERIFY:
        tally.attempt("multi_round", f"verify_mpg {name}",
                      partial(verify_op, tr, tally, name, spec, expect))
    for spec in MPG_NASH:
        tally.attempt("multi_round", f"find_mpg_nash horizon={spec['horizon']}",
                      partial(mpg_nash_op, tr, tally, spec))
    symmetric = make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
    for start in inputs["starts"]:
        tally.attempt("cgp", f"find_nash from {start}",
                      partial(nash_op, tr, tally, symmetric, start))
    uneven = make_binary_sums_cgp((1.0, 2.0), (1.0, 1.0))
    for game, expect in ((symmetric, True), (uneven, False)):
        tally.attempt("cgp", f"is_potential_game expect={expect}",
                      partial(potential_op, tr, game, expect))
    for episode_len in (1, EPISODE_LEN):
        feasible = []
        for eps, gamma1, n_agents in CALIBRATION_GRID:
            tally.attempt("accountant", f"calibrate eps={eps} gamma1={gamma1} N={n_agents} "
                          f"T={episode_len}", partial(calibrate_op, tr, tally, feasible, eps,
                                                      gamma1, n_agents, episode_len))
        if episode_len == 1:
            tally.attempt("accountant", "feasible set of the step grid",
                          partial(_feasible_count, feasible))


# --- library: the three in-process operation sets ------------------------

def library_inputs(seed: int):
    return {"mc_sweep": mc_sweep_inputs(seed), "mc_wide": mc_wide_inputs(seed),
            "games": games_inputs(seed)}


def library_pass(inputs, tr, tally, out_dir):
    # One Bonferroni family over every Monte-Carlo comparison of the pass.
    z = oracles.bonferroni_z(sum(len(bits) for part in ("mc_sweep", "mc_wide")
                                 for bits, _, _, _ in inputs[part]))
    mc_sweep_ops(inputs["mc_sweep"], tr, tally, z)
    mc_wide_ops(inputs["mc_wide"], tr, tally, z)
    games_ops(inputs["games"], tr, tally)


# --- cli ------------------------------------------------------------------

#: (subcommand, shipped config) in the order the cli pass runs them, at seed 0.
CLI_RUNS = (
    ("calibrate", "calibrate"),
    ("calibrate", "calibrate_episode"),
    ("binary-sums", "binary_sums"),
    ("equilibrium", "equilibrium"),
    ("multi-round", "multi_round"),
    ("sender", "sender"),
)
CLI_SEED = 0
CLI_TIMEOUT_S = 120


def cli_inputs(seed: int):
    """The shipped configs, read once; the cli workload always runs them at seed 0."""
    configs = {}
    for _, name in CLI_RUNS:
        with open(os.path.join("configs", f"{name}.json")) as fh:
            configs[name] = json.load(fh)
    return configs


def _cli_counts(tally, command, config, rows):
    if command == "calibrate":
        tally.counts["accountant.calibrations"] += len(rows)
    elif command == "binary-sums":
        tally.counts["binary_sums.trials"] += config["trials"] * len(
            {r["mode"] for r in rows})
    elif command == "sender":
        tally.counts["gaussian_sender.gd_steps"] += config.get("gd_steps", 6000) * len(rows)
    elif command == "multi-round":
        fields = MrsConfig.__dataclass_fields__
        cfg = MrsConfig(**{k: v for k, v in config.items() if k in fields})
        tally.counts["multi_round.profiles"] += policy_space_size(cfg, cfg.start_state())


def _cli_run(tr, tally, command, name, config, out_dir):
    run_dir = os.path.join(out_dir, name)
    shutil.rmtree(run_dir, ignore_errors=True)
    argv = [sys.executable, "-m", "dpcomm", command, "--config",
            os.path.join("configs", f"{name}.json"), "--seed", str(CLI_SEED), "--out", run_dir]
    try:
        proc = tr.call(f"cli.{name}", subprocess.run, argv, capture_output=True, text=True,
                       timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            return f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"
        with open(os.path.join(run_dir, f"{command.replace('-', '_')}.csv")) as fh:
            provenance, rows = oracles.parse_table(fh.read())
        if provenance.get("seed") != str(CLI_SEED):
            return f"table provenance seed is {provenance.get('seed')!r}"
        problem = oracles.TABLE_CHECKS[command](rows)
        if problem:
            return problem
        if "svg" in config:
            root = ET.parse(os.path.join(run_dir, config["svg"])).getroot()
            if next(root.iter("{http://www.w3.org/2000/svg}polyline"), None) is None:
                return "SVG plot has no polyline"
        _cli_counts(tally, command, config, rows)
        return None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def cli_pass(inputs, tr, tally, out_dir):
    for command, name in CLI_RUNS:
        tally.attempt("cli", f"dpcomm {command} --config configs/{name}.json",
                      partial(_cli_run, tr, tally, command, name, inputs[name], out_dir))


WORKLOADS = {
    "library": (library_inputs, library_pass),
    "cli": (cli_inputs, cli_pass),
}
