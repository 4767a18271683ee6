"""Command-line experiment harness.

Commands: calibrate | binary-sums | equilibrium | multi-round | sender.
Each takes a JSON config document, a seed, an output directory, and an output
format. A command returns its table, exit code and plot; ``main`` renders the
table and, if the config names one, the SVG, and writes all of them or none.
The seed is checked once, for every command. The CLI checks
only the document's shape (strict UTF-8 JSON, known keys, each given once,
required keys, the JSON kind of each value, ``svg`` a plain file name), naming
the offending line, and that no output replaces the config or the table; the
library objects built from the values check their ranges and report the
parameter and the bad value. Exit codes: 0 success, 1 usage, config or write
error, 2 infeasible result or oracle failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import random
import re
import sys
from operator import mul

from . import __version__
from .errors import CalibrationInfeasibleError, StepSizeError, require_count, require_seed
from .report import ResultTable, line_plot_svg, provenance_block

# A command imports its own library modules in its body, so each process loads
# only what its command runs, and only binary-sums loads numpy, at its first
# Monte-Carlo game: sender's targets are all diagonal, so it runs on the
# numpy-free diagonal_sender.

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2

SENDER_GD_TOL = 1e-6  # largest gd_kl - aware_kl the sender oracle accepts


class ConfigError(Exception):
    """Config file is unreadable, has the wrong shape, or names outputs that
    would replace an input or each other (exit code 1)."""


def _is_number(value) -> bool:  # JSON true and false are not numbers
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_list_of(is_item):
    return lambda value: isinstance(value, list) and len(value) > 0 and all(map(is_item, value))


def _is_file_name(value) -> bool:  # a name inside --out: no directory part, not "." or ".."
    return (isinstance(value, str) and value not in ("", ".", "..")
            and not any(c in value for c in ("/", os.sep, "\0")))


# JSON kinds of config values: (description, test).
NUMBER = ("a number", _is_number)
NUMBERS = ("a non-empty list of numbers", _is_list_of(_is_number))
STRING = ("a string", lambda value: isinstance(value, str))
STRINGS = ("a non-empty list of strings", _is_list_of(STRING[1]))
FILE_NAME = ("a plain file name", _is_file_name)

#: Config keys per subcommand, (required, optional), each mapping a key to the
#: JSON kind of its value. Only this shape is checked here; the library objects
#: built from the values check their ranges.
CONFIG_KEYS = {
    "calibrate": (
        {"epsilons": NUMBERS, "delta": NUMBER, "gamma1": NUMBER, "gamma2": NUMBER,
         "num_agents": NUMBER, "clip_norm": NUMBER},
        {"episode_lens": NUMBERS, "svg": FILE_NAME},
    ),
    "binary-sums": (
        {"bits": NUMBERS, "epsilons": NUMBERS, "trials": NUMBER},
        {"receiver_modes": STRINGS},
    ),
    "equilibrium": (
        {"benefit_weights": NUMBERS, "privacy_weights": NUMBERS},
        {"num_starts": NUMBER, "grid_step": NUMBER, "tol": NUMBER},
    ),
    "multi-round": (
        {"num_agents": NUMBER, "horizon": NUMBER, "reward_alpha": NUMBER, "reward_beta": NUMBER,
         "initial_savings": NUMBERS, "spend_grid": NUMBERS, "privacy_grid": NUMBERS},
        {"discount": NUMBER, "team_weights": NUMBERS, "tol": NUMBER, "max_sweeps": NUMBER,
         "svg": FILE_NAME},
    ),
    "sender": (
        {"dim": NUMBER, "noise_vars": NUMBERS},
        {"target_variances": NUMBERS, "target_mean": NUMBERS, "gd_steps": NUMBER,
         "gd_learning_rate": NUMBER, "svg": FILE_NAME},
    ),
}


def _key_line(raw_text: str, key: str, nth: int = 0) -> str:
    """'line N: ' prefix of occurrence ``nth`` (from 0) of a key, found by its decoded name."""
    found = [m.start() for m in _STRING_OR_CONSTANT.finditer(raw_text)
             if m["colon"] and _decodes_to(m["string"], key)][nth:]
    lineno = raw_text.count("\n", 0, found[0]) + 1 if found else 0
    return f"line {lineno}: " if found else ""


def _decodes_to(token: str, key: str) -> bool:
    try:  # a JSON string token that does not decode names no key
        return json.loads(token) == key
    except ValueError:
        return False


def _check_shape(config: dict, raw_text: str, command: str) -> None:
    """Known keys only, every required key, each value of its JSON kind."""
    required, optional = CONFIG_KEYS[command]
    unknown = sorted(set(config) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{_key_line(raw_text, unknown[0])}unknown config key {unknown[0]!r}")
    for key in required:
        if key not in config:
            raise ConfigError(f"missing required config key {key!r}")
    for key, value in config.items():
        description, has_kind = required.get(key) or optional[key]
        if not has_kind(value):
            raise ConfigError(f"{_key_line(raw_text, key)}config key {key!r} must be "
                              f"{description}, got {json.dumps(value)}")


# A JSON string, with the ':' after a key, or a non-JSON literal Python's parser accepts.
_STRING_OR_CONSTANT = re.compile(r'(?P<string>"(?:[^"\\]|\\.)*")(?P<colon>\s*:)?'
                                 r'|(?P<constant>-?Infinity|NaN)')


def _reject_constant(raw_text: str):
    """parse_constant hook: NaN and +-Infinity are not JSON numbers."""
    def reject(name: str):
        # The parser meets literals in text order, so the first one outside a
        # string is the one being rejected.
        pos = next(m.start() for m in _STRING_OR_CONSTANT.finditer(raw_text) if m["constant"])
        lineno = raw_text.count("\n", 0, pos) + 1
        raise ConfigError(f"line {lineno}: {name} is not a JSON number")
    return reject


def _reject_duplicates(raw_text: str):
    """object_pairs_hook: a key given twice in one object is an error, not its later value."""
    def to_dict(pairs: list) -> dict:
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise ConfigError(f"{_key_line(raw_text, key, 1)}duplicate config key {key!r}")
            doc[key] = value
        return doc
    return to_dict


def _parse_int(text: str):
    """parse_int hook: an integer beyond the float range reads as +-inf, like 1e999."""
    value = int(text)
    return value if abs(value) <= sys.float_info.max else float(text)


def load_config(path: str, command: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:  # JSON text is UTF-8 (RFC 8259)
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(raw, parse_constant=_reject_constant(raw), parse_int=_parse_int,
                         object_pairs_hook=_reject_duplicates(raw))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: malformed JSON in {path}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_shape(doc, raw, command)
    return doc


def _check_outputs(config_path: str, table_path: str, svg_path: str | None) -> None:
    """ConfigError if the SVG would replace the table, or an output the config."""
    if svg_path == table_path:
        raise ConfigError(f"svg {os.path.basename(svg_path)!r} is the result table's file name")
    for path in (table_path, svg_path):
        if path is not None and os.path.exists(path) and os.path.samefile(path, config_path):
            raise ConfigError(f"output {path} would replace the config file")


def _given(config: dict, *keys: str) -> dict:  # the keys set; defaults stay in the library
    return {key: config[key] for key in keys if key in config}


def cmd_calibrate(config: dict, seed: int) -> tuple:
    from .accountant import MechanismParams, PrivacyBudget, calibrate_episode, round_trip

    table = ResultTable([
        "epsilon", "delta", "gamma1", "gamma2", "num_agents", "clip_norm",
        "episode_len", "sigma_sq", "alpha", "beta", "sigma_prime_sq",
        "feasible", "roundtrip_epsilon",
    ])
    runs = [
        (eps, t, PrivacyBudget(eps, config["delta"]), MechanismParams(
            clip_norm=config["clip_norm"],
            sample_rate_data=config["gamma1"],
            sample_rate_agents=config["gamma2"],
            num_agents=config["num_agents"],
            episode_len=t,
        ))
        for eps in config["epsilons"] for t in config.get("episode_lens", [1])
    ]
    any_infeasible = False
    for eps, t, budget, params in runs:
        try:
            # At episode_len 1 the episode variance is the step variance times 1.
            result = calibrate_episode(budget, params)
            solved = (result.sigma_sq, result.alpha, result.beta, result.sigma_prime_sq, True,
                      round_trip(result, budget, params, episode=True).epsilon)
        except CalibrationInfeasibleError:
            any_infeasible = True
            solved = (None, None, None, None, False, None)
        table.append(eps, config["delta"], config["gamma1"], config["gamma2"],
                     config["num_agents"], config["clip_norm"], t, *solved)
    feasible = [(e, s) for e, s, ok in zip(
        table.column("epsilon"), table.column("sigma_sq"), table.column("feasible")) if ok]
    plot = ({"sigma_sq": ([e for e, _ in feasible], [s for _, s in feasible])},
            "epsilon", "sigma_sq")
    return table, (EXIT_INFEASIBLE if any_infeasible else EXIT_OK), plot


def cmd_binary_sums(config: dict, seed: int) -> tuple:
    from .binary_sums import BinarySumsInstance, analytic_outcome, run_game

    table = ResultTable([
        "mode", "agent", "analytic_guess", "mc_guess", "mc_std_error",
        "bias_vs_analytic", "analytic_utility", "mc_utility",
        "analytic_team_reward", "mc_team_reward",
    ])
    bits = config["bits"]
    epsilons = config["epsilons"]
    if len(epsilons) == 1:
        epsilons = epsilons * len(bits)
    instances = [BinarySumsInstance(bits, epsilons, mode)
                 for mode in config.get("receiver_modes", ["naive", "aware"])]
    agree = True
    for instance in instances:
        mode = instance.receiver_mode
        exact = analytic_outcome(instance)
        mc = run_game(instance, config["trials"], seed)
        for i in range(instance.num_agents):
            gap = mc.guesses[i] - exact.guesses[i]
            if abs(gap) > 3.0 * mc.mc_std_errors[i] + 1e-12:
                agree = False
            table.append(mode, i, exact.guesses[i], mc.guesses[i], mc.mc_std_errors[i],
                         gap, exact.utilities[i], mc.utilities[i],
                         exact.team_reward, mc.team_reward)
    return table, (EXIT_OK if agree else EXIT_INFEASIBLE), None


def cmd_equilibrium(config: dict, seed: int) -> tuple:
    from .cgp import StrategyProfile, find_nash, is_potential_game, make_binary_sums_cgp

    table = ResultTable([
        "start_p1", "start_p2", "p1", "p2", "p_sum", "converged",
        "max_unilateral_gain", "is_potential_game", "max_cross_deviation",
    ])
    instance = make_binary_sums_cgp(config["benefit_weights"], config["privacy_weights"])
    num_starts = require_count("num_starts", config.get("num_starts", 10), 1)
    pg, deviation = is_potential_game(instance)
    rng = random.Random(seed)  # numpy-free, and the same stream on every Python version
    all_converged = True
    for _ in range(num_starts):
        start = StrategyProfile((rng.random(), rng.random()))
        res = find_nash(instance, start, **_given(config, "tol", "grid_step"))
        all_converged &= res.converged
        table.append(start.p[0], start.p[1], res.profile.p[0], res.profile.p[1],
                     res.profile.p[0] + res.profile.p[1], res.converged,
                     res.max_gain, pg, deviation)
    return table, (EXIT_OK if all_converged else EXIT_INFEASIBLE), None


def cmd_multi_round(config: dict, seed: int) -> tuple:
    from .multi_round import MrsConfig, find_mpg_nash, verify_mpg

    fields = {f.name for f in dataclasses.fields(MrsConfig)}
    cfg = MrsConfig(**{"discount": 1.0, **{k: v for k, v in config.items() if k in fields}})
    start = cfg.start_state()
    is_mpg, violation = verify_mpg(cfg, start, **_given(config, "tol"))
    res = find_mpg_nash(cfg, start, **_given(config, "max_sweeps"))
    table = ResultTable([
        "record", "agent", "saving", "round", "spend", "privacy",
        "is_mpg", "max_violation", "converged", "potential",
    ])
    table.append("summary", None, None, None, None, None,
                 is_mpg, violation, res.converged, res.potential_trace[-1])
    if cfg.horizon > 0:
        for k, value in enumerate(res.potential_trace):
            table.append("potential_trace", None, None, k, None, None, None, None, None, value)
    for policy in res.policies:
        for (saving, step), action in sorted(policy.actions.items()):
            table.append("policy", policy.agent, saving, step,
                         action.spend, action.privacy, None, None, None, None)
    xs = list(range(len(res.potential_trace)))
    plot = ({"potential": (xs, list(res.potential_trace))},
            "best-response updates", "potential value")
    return table, (EXIT_OK if is_mpg else EXIT_INFEASIBLE), plot


def cmd_sender(config: dict, seed: int) -> tuple:
    from .diagonal_sender import (_GD_LEARNING_RATE, _GD_STEPS, _closed_form_kls,
                                  _descent_params, _diagonal_descent, _diagonal_target,
                                  _sender_problem, _target_terms)

    d = require_count("dim", config["dim"], 1)
    variances = config.get("target_variances", [1.0] * d)
    mean = config.get("target_mean", [0.0] * d)
    if len(variances) != d or len(mean) != d:
        raise ConfigError(f"target_mean and target_variances must have length dim = {d}")
    target = _diagonal_target(mean, variances)
    noise_vars = [_sender_problem(target.variances, noise) for noise in config["noise_vars"]]
    table = ResultTable([
        "noise_var", "oblivious_kl", "aware_kl", "gd_kl", "gd_vs_closed_form",
    ])
    closed_forms = [_closed_form_kls(target.variances, noise) for noise in noise_vars]
    steps = config.get("gd_steps", _GD_STEPS)
    learning_rate = config.get("gd_learning_rate", _GD_LEARNING_RATE)
    steps, learning_rate = _descent_params(steps, learning_rate)
    target_inv, logdet_q = _target_terms(target.variances)
    gd_kls = [_diagonal_descent(target.mean, target_inv, logdet_q,
                                lambda diff: list(map(mul, target_inv, diff)), noise, steps,
                                learning_rate)[2]
              for noise in noise_vars]
    agree = True
    for noise, (obl_kl, aware_kl), gd_kl in zip(config["noise_vars"], closed_forms, gd_kls):
        gap = gd_kl - aware_kl
        agree &= gap <= SENDER_GD_TOL  # False for a NaN gap too
        table.append(noise, obl_kl, aware_kl, gd_kl, gap)
    plot = ({"oblivious": (noise_vars, table.column("oblivious_kl")),
             "aware": (noise_vars, table.column("aware_kl"))}, "noise variance", "KL to target")
    return table, (EXIT_OK if agree else EXIT_INFEASIBLE), plot


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
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpcomm", description=__doc__)
    parser.add_argument("--version", action="version", version=f"dpcomm {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="the command to run")
    parser.add_argument("--config", required=True, help="JSON config document")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument("--out", default=None,
                        help="output directory (default: $DPCOMM_OUT or '.')")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out_dir = args.out or os.environ.get("DPCOMM_OUT", ".")
    out_path = os.path.join(out_dir, f"{args.command.replace('-', '_')}.{args.format}")
    try:
        require_seed("seed", args.seed)
        config = load_config(args.config, args.command)
        svg_path = os.path.join(out_dir, config["svg"]) if "svg" in config else None
        _check_outputs(args.config, out_path, svg_path)
        table, code, plot = COMMANDS[args.command](config, args.seed)
    except ConfigError as exc:
        print(f"dpcomm {args.command}: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # the library's typed input errors
        print(f"dpcomm {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except StepSizeError as exc:
        print(f"dpcomm {args.command}: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    table.provenance = provenance_block(config, args.seed)
    files = {out_path: table.to_csv() if args.format == "csv" else table.to_json()}
    if svg_path is not None:
        files[svg_path] = line_plot_svg(*plot, table.provenance)
    written = []  # every file this run opened, removed again if any write fails
    try:
        os.makedirs(out_dir, exist_ok=True)
        for path, text in files.items():
            with open(path, "w", newline="") as fh:
                written.append(path)
                fh.write(text)
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        print(f"dpcomm {args.command}: cannot write {exc.filename or out_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return EXIT_USAGE
    print(out_path)
    return code
