"""Command-line experiment harness.

Subcommands: calibrate | binary-sums | equilibrium | multi-round | sender.
Each takes a JSON config document (schema-validated, unknown keys rejected),
a seed, an output directory, and an output format, and writes one result
table per run. Exit codes: 0 success, 1 usage or config error, 2 infeasible
result or oracle failure.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from .accountant import (
    CalibrationInfeasibleError,
    MechanismParams,
    PrivacyBudget,
    calibrate_episode,
    calibrate_step,
    round_trip,
)
from .binary_sums import BinarySumsInstance, analytic_outcome, run_game
from .cgp import StrategyProfile, find_nash, is_potential_game, make_binary_sums_cgp
from .errors import InvalidParameterError, StepSizeError
from .gaussian_sender import (
    GaussianMessageDist,
    SenderProblem,
    aware_optimum,
    aware_optimum_gd,
    oblivious_optimum,
)
from .multi_round import MrsConfig, find_mpg_nash, verify_mpg
from .report import ResultTable, line_plot_svg, provenance_block
from .rng import substream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

SENDER_GD_TOL = 1e-6  # largest gd_kl - aware_kl the sender oracle accepts


class ConfigError(Exception):
    """Config file failed schema validation (exit code 1)."""


class Schema:
    """A flat key -> (type, required, predicate) config schema."""

    def __init__(self, fields: dict):
        self.fields = fields

    def validate(self, config: dict, raw_text: str) -> dict:
        unknown = sorted(set(config) - set(self.fields))
        if unknown:
            raise ConfigError(
                f"{_key_line(raw_text, unknown[0])}unknown config key {unknown[0]!r}"
            )
        out = {}
        for key, (types, required, check) in self.fields.items():
            if key not in config:
                if required:
                    raise ConfigError(f"missing required config key {key!r}")
                continue
            value = config[key]
            if not isinstance(value, types) or isinstance(value, bool) and bool not in _astuple(types):
                raise ConfigError(
                    f"{_key_line(raw_text, key)}config key {key!r} has wrong type "
                    f"{type(value).__name__}"
                )
            if check is not None and not check(value):
                raise ConfigError(f"{_key_line(raw_text, key)}config key {key!r} is invalid")
            out[key] = value
        return out


def _astuple(types):
    return types if isinstance(types, tuple) else (types,)


def _key_line(raw_text: str, key: str) -> str:
    """'line N: ' prefix locating the first occurrence of a key in the file."""
    needle = f'"{key}"'
    for lineno, line in enumerate(raw_text.splitlines(), start=1):
        if needle in line:
            return f"line {lineno}: "
    return ""


def _positive(x) -> bool:
    return x > 0


def _number_list(values) -> bool:
    return isinstance(values, list) and len(values) > 0 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in values
    )


NUM = (int, float)

SCHEMAS = {
    "calibrate": Schema({
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
    "binary-sums": Schema({
        "bits": (list, True, lambda v: len(v) > 0 and all(b in (0, 1) for b in v)),
        "epsilons": (list, True, _number_list),
        "receiver_modes": (list, False, lambda v: all(m in ("naive", "aware") for m in v)),
        "trials": (int, True, lambda v: v >= 1),
    }),
    "equilibrium": Schema({
        "benefit_weights": (list, True, lambda v: _number_list(v) and len(v) == 2),
        "privacy_weights": (list, True, lambda v: _number_list(v) and len(v) == 2),
        "num_starts": (int, False, _positive),
        "grid_step": (float, False, _positive),
        "tol": (float, False, _positive),
    }),
    "multi-round": Schema({
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
    "sender": Schema({
        "dim": (int, True, _positive),
        "target_variances": (list, False, _number_list),
        "target_mean": (list, False, _number_list),
        "noise_vars": (list, True, lambda v: _number_list(v) and all(x >= 0 for x in v)),
        "gd_steps": (int, False, _positive),
        "gd_learning_rate": (float, False, _positive),
        "svg": (str, False, None),
    }),
}


# A JSON string, or one of the non-JSON literals Python's parser accepts.
_STRING_OR_CONSTANT = re.compile(r'"(?:[^"\\]|\\.)*"|(-?Infinity|NaN)')


def _reject_constant(raw_text: str):
    """parse_constant hook: NaN and +-Infinity are not JSON numbers."""
    def reject(name: str):
        # The parser meets literals in text order, so the first one outside a
        # string is the one being rejected.
        pos = next(m.start(1) for m in _STRING_OR_CONSTANT.finditer(raw_text) if m.group(1))
        lineno = raw_text.count("\n", 0, pos) + 1
        raise ConfigError(f"line {lineno}: {name} is not a JSON number")
    return reject


def load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw, parse_constant=_reject_constant(raw))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: malformed JSON in {path}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    return SCHEMAS[command].validate(doc, raw)


def cmd_calibrate(config: dict, seed: int, jobs: int = 1) -> tuple:
    table = ResultTable([
        "epsilon", "delta", "gamma1", "gamma2", "num_agents", "clip_norm",
        "episode_len", "sigma_sq", "alpha", "beta", "sigma_prime_sq",
        "feasible", "roundtrip_epsilon",
    ])
    any_infeasible = False
    episode_lens = config.get("episode_lens", [1])
    for eps in config["epsilons"]:
        for t in episode_lens:
            budget = PrivacyBudget(float(eps), config["delta"])
            params = MechanismParams(
                clip_norm=float(config["clip_norm"]),
                sample_rate_data=config["gamma1"],
                sample_rate_agents=config["gamma2"],
                num_agents=config["num_agents"],
                episode_len=int(t),
            )
            episode = t > 1
            try:
                result = (calibrate_episode if episode else calibrate_step)(budget, params)
                eps_back = round_trip(result, budget, params, episode=episode).epsilon
                table.append(eps, config["delta"], config["gamma1"], config["gamma2"],
                             config["num_agents"], config["clip_norm"], t,
                             result.sigma_sq, result.alpha, result.beta,
                             result.sigma_prime_sq, True, eps_back)
            except CalibrationInfeasibleError:
                any_infeasible = True
                table.append(eps, config["delta"], config["gamma1"], config["gamma2"],
                             config["num_agents"], config["clip_norm"], t,
                             None, None, None, None, False, None)
    svg = None
    if "svg" in config:
        feasible = [(e, s) for e, s, ok in zip(
            table.column("epsilon"), table.column("sigma_sq"), table.column("feasible")) if ok]
        svg = (config["svg"], {"sigma_sq": ([e for e, _ in feasible], [s for _, s in feasible])},
               "epsilon", "sigma_sq")
    return table, (EXIT_INFEASIBLE if any_infeasible else EXIT_OK), svg


def cmd_binary_sums(config: dict, seed: int, jobs: int = 1) -> tuple:
    table = ResultTable([
        "mode", "agent", "analytic_guess", "mc_guess", "mc_std_error",
        "bias_vs_analytic", "analytic_utility", "mc_utility",
        "analytic_team_reward", "mc_team_reward",
    ])
    bits = config["bits"]
    epsilons = config["epsilons"]
    if len(epsilons) == 1:
        epsilons = epsilons * len(bits)
    modes = config.get("receiver_modes", ["naive", "aware"])
    agree = True
    for mode in modes:
        instance = BinarySumsInstance(tuple(bits), tuple(epsilons), mode)
        exact = analytic_outcome(instance)
        mc = run_game(instance, config["trials"], seed, jobs=jobs)
        for i in range(instance.num_agents):
            gap = mc.guesses[i] - exact.guesses[i]
            if abs(gap) > 3.0 * mc.mc_std_errors[i] + 1e-12:
                agree = False
            table.append(mode, i, exact.guesses[i], mc.guesses[i], mc.mc_std_errors[i],
                         gap, exact.utilities[i], mc.utilities[i],
                         exact.team_reward, mc.team_reward)
    return table, (EXIT_OK if agree else EXIT_INFEASIBLE), None


def cmd_equilibrium(config: dict, seed: int, jobs: int = 1) -> tuple:
    table = ResultTable([
        "start_p1", "start_p2", "p1", "p2", "p_sum", "converged",
        "max_unilateral_gain", "is_potential_game", "max_cross_deviation",
    ])
    instance = make_binary_sums_cgp(config["benefit_weights"], config["privacy_weights"])
    grid_step = config.get("grid_step", 0.01)
    tol = config.get("tol", 1e-8)
    pg, deviation = is_potential_game(instance, grid_step=0.05, tol=1e-6)
    rng = substream(seed)
    all_converged = True
    for _ in range(config.get("num_starts", 10)):
        start = StrategyProfile(tuple(rng.random(2)))
        res = find_nash(instance, start, tol=tol, grid_step=grid_step)
        all_converged &= res.converged
        table.append(start.p[0], start.p[1], res.profile.p[0], res.profile.p[1],
                     res.profile.p[0] + res.profile.p[1], res.converged,
                     res.max_gain, pg, deviation)
    return table, (EXIT_OK if all_converged else EXIT_INFEASIBLE), None


def cmd_multi_round(config: dict, seed: int, jobs: int = 1) -> tuple:
    cfg = MrsConfig(
        num_agents=config["num_agents"],
        horizon=config["horizon"],
        discount=float(config.get("discount", 1.0)),
        reward_alpha=float(config["reward_alpha"]),
        reward_beta=float(config["reward_beta"]),
        initial_savings=tuple(config["initial_savings"]),
        spend_grid=tuple(config["spend_grid"]),
        privacy_grid=tuple(config["privacy_grid"]),
        team_weights=tuple(config["team_weights"]) if "team_weights" in config else None,
    )
    start = cfg.start_state()
    tol = config.get("tol", 1e-12)
    is_mpg, violation = verify_mpg(cfg, start, tol=tol)
    res = find_mpg_nash(cfg, start, max_sweeps=config.get("max_sweeps", 20))
    table = ResultTable([
        "record", "agent", "saving", "round", "spend", "privacy",
        "is_mpg", "max_violation", "converged", "potential",
    ])
    table.append("summary", None, None, None, None, None,
                 is_mpg, violation, res.converged, res.potential_trace[-1] if res.potential_trace else 0.0)
    if cfg.horizon > 0:
        for k, value in enumerate(res.potential_trace):
            table.append("potential_trace", None, None, k, None, None, None, None, None, value)
    for policy in res.policies:
        for (saving, step), action in sorted(policy.actions.items()):
            table.append("policy", policy.agent, saving, step,
                         action.spend, action.privacy, None, None, None, None)
    svg = None
    if "svg" in config:
        xs = list(range(len(res.potential_trace)))
        svg = (config["svg"], {"potential": (xs, list(res.potential_trace))},
               "best-response updates", "potential value")
    return table, (EXIT_OK if is_mpg else EXIT_INFEASIBLE), svg


def cmd_sender(config: dict, seed: int, jobs: int = 1) -> tuple:
    d = config["dim"]
    variances = config.get("target_variances", [1.0] * d)
    mean = config.get("target_mean", [0.0] * d)
    if len(variances) != d or len(mean) != d:
        raise ConfigError("target_mean and target_variances must have length dim")
    target = GaussianMessageDist.from_diagonal(np.array(mean, dtype=float),
                                               np.array(variances, dtype=float))
    table = ResultTable([
        "noise_var", "oblivious_kl", "aware_kl", "gd_kl", "gd_vs_closed_form",
    ])
    agree = True
    for noise in config["noise_vars"]:
        problem = SenderProblem(target, float(noise))
        obl = oblivious_optimum(problem)
        aware = aware_optimum(problem)
        gd = aware_optimum_gd(problem, steps=config.get("gd_steps", 6000),
                              learning_rate=config.get("gd_learning_rate", 0.1))
        gap = gd.kl - aware.kl
        agree &= gap <= SENDER_GD_TOL  # False for a NaN gap too
        table.append(noise, obl.kl, aware.kl, gd.kl, gap)
    svg = None
    if "svg" in config:
        xs = [float(n) for n in config["noise_vars"]]
        svg = (config["svg"], {
            "oblivious": (xs, table.column("oblivious_kl")),
            "aware": (xs, table.column("aware_kl")),
        }, "noise variance", "KL to target")
    return table, (EXIT_OK if agree else EXIT_INFEASIBLE), svg


COMMANDS = {
    "calibrate": cmd_calibrate,
    "binary-sums": cmd_binary_sums,
    "equilibrium": cmd_equilibrium,
    "multi-round": cmd_multi_round,
    "sender": cmd_sender,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's default 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpcomm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dpcomm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=None,
                       help="output directory (default: $DPCOMM_OUT or '.')")
        p.add_argument("--jobs", type=int, default=1,
                       help="worker bound for Monte-Carlo fan-out (results identical)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out_dir = args.out or os.environ.get("DPCOMM_OUT", ".")
    try:
        config = load_config(args.config, args.command)
        table, code, svg = COMMANDS[args.command](config, args.seed, args.jobs)
    except ConfigError as exc:
        print(f"dpcomm {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvalidParameterError, ValueError) as exc:
        print(f"dpcomm {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StepSizeError as exc:
        print(f"dpcomm {args.command}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    os.makedirs(out_dir, exist_ok=True)
    table.provenance = provenance_block(config, args.seed)
    out_path = os.path.join(out_dir, f"{args.command.replace('-', '_')}.{args.format}")
    table.write(out_path, args.format)
    if svg is not None:
        name, series, x_label, y_label = svg
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            fh.write(line_plot_svg(series, x_label, y_label, table.provenance))
    print(out_path)
    return code


def entry():  # console-script wrapper
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
