"""Differentially private multi-agent communication toolkit.

Noise calibration through Renyi-DP accounting, local privacy mechanisms with
de-biasing receivers, noise-aware Gaussian message senders, and the
communication games they induce (single-round binary sums, a two-player
collaborative game over privacy levels, and a multi-round Markov potential
game), each verified against analytic or brute-force oracles at desk scale.

The public names below are imported from their submodule on first use
(PEP 562), so ``import dpcomm`` loads no numpy. Of the submodules, only
``gaussian_sender``, whose every name is built on arrays, imports numpy at its
top; ``binary_sums``, ``mechanisms`` and ``rng`` import it at their first
computation on arrays.
"""

import importlib

__version__ = "0.1.0"

#: Public name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "accountant": (
            "CalibrationResult", "MechanismParams", "PrivacyBudget", "RdpPoint",
            "calibrate_episode", "calibrate_step", "compose", "gaussian_rdp", "rdp_to_dp",
            "round_trip", "subsampled_gaussian_rdp",
        ),
        "binary_sums": ("BinarySumsInstance", "BinarySumsOutcome", "analytic_outcome", "run_game"),
        "cgp": (
            "CgpInstance", "NashResult", "StrategyProfile", "best_response", "find_nash",
            "is_potential_game", "make_binary_sums_cgp", "max_unilateral_gain", "utility",
            "value_partials_match",
        ),
        "errors": (
            "CalibrationInfeasibleError", "CompositionOrderError", "DegenerateMechanismError",
            "EnumerationBudgetError", "EvaluationError", "InfeasibleOrderError",
            "InvalidActionError", "InvalidParameterError", "SingularTargetError",
            "StepSizeError",
        ),
        "gaussian_sender": (
            "GaussianMessageDist", "SenderProblem", "SenderSolution", "aware_optimum",
            "aware_optimum_gd", "kl_gaussian", "oblivious_optimum", "sample_message",
        ),
        "mechanisms": (
            "ClippedVector", "RrMechanism", "aware_guess", "clip", "gaussian_perturb",
            "naive_bias", "naive_guess", "rr_flip_prob", "rr_perturb", "subsample",
        ),
        "multi_round": (
            "MpgNashResult", "MrsAction", "MrsConfig", "MrsState", "TabularPolicy",
            "best_response_policy", "find_mpg_nash", "policy_value", "potential",
            "potential_value", "step_reward", "theta", "transition", "verify_mpg",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
