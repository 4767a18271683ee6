"""The public API of ``dpcomm``: the names it exports and where they come from."""

import importlib
import inspect
from pathlib import Path

import pytest

import dpcomm
from dpcomm import errors

#: Every public name of the package, by the submodule that defines it.
EXPORTS = {
    "accountant": [
        "CalibrationResult", "MechanismParams", "PrivacyBudget", "RdpPoint",
        "calibrate_episode", "calibrate_step", "compose", "gaussian_rdp", "rdp_to_dp",
        "round_trip", "subsampled_gaussian_rdp",
    ],
    "binary_sums": ["BinarySumsInstance", "BinarySumsOutcome", "analytic_outcome", "run_game"],
    "cgp": [
        "CgpInstance", "NashResult", "StrategyProfile", "best_response", "find_nash",
        "is_potential_game", "make_binary_sums_cgp", "max_unilateral_gain", "utility",
        "value_partials_match",
    ],
    "errors": [
        "CalibrationInfeasibleError", "CompositionOrderError", "DegenerateMechanismError",
        "EnumerationBudgetError", "EvaluationError", "InfeasibleOrderError",
        "InvalidActionError", "InvalidParameterError", "SingularTargetError", "StepSizeError",
    ],
    "gaussian_sender": [
        "GaussianMessageDist", "SenderProblem", "SenderSolution", "aware_optimum",
        "aware_optimum_gd", "kl_gaussian", "oblivious_optimum", "sample_message",
    ],
    "mechanisms": [
        "ClippedVector", "RrMechanism", "aware_guess", "clip", "gaussian_perturb",
        "naive_bias", "naive_guess", "rr_flip_prob", "rr_perturb", "subsample",
    ],
    "multi_round": [
        "MpgNashResult", "MrsAction", "MrsConfig", "MrsState", "TabularPolicy",
        "best_response_policy", "find_mpg_nash", "policy_value", "potential",
        "potential_value", "step_reward", "theta", "transition", "verify_mpg",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_the_67_public_names():
    assert len(NAMES) == len(set(NAMES)) == 67
    assert dpcomm.__all__ == NAMES


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_name_is_the_submodule_object(module, name):
    obj = getattr(dpcomm, name)
    assert obj is getattr(importlib.import_module(f"dpcomm.{module}"), name)
    assert obj.__module__ == f"dpcomm.{module}"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from dpcomm import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == NAMES
    assert all(namespace[name] is getattr(dpcomm, name) for name in NAMES)


def test_dir_lists_every_name():
    assert set(NAMES) <= set(dir(dpcomm))
    assert "__version__" in dir(dpcomm)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        dpcomm.no_such_name
    assert not hasattr(dpcomm, "no_such_name")


def test_submodule_import_still_works():
    from dpcomm import cgp

    assert cgp is importlib.import_module("dpcomm.cgp")
    assert cgp.find_nash is dpcomm.find_nash


def test_version_is_a_plain_attribute():
    assert "__version__" in vars(dpcomm)
    assert dpcomm.__version__ == "0.1.0"


def test_arrays_are_converted_in_one_place():
    # A caller's values become a float array only in errors.require_float_array,
    # so a bad entry raises the same InvalidParameterError wherever it enters.
    hits = [(path.name, line.strip())
            for path in sorted(Path(dpcomm.__file__).parent.glob("*.py"))
            for line in path.read_text().splitlines() if "np.asarray(" in line]
    assert hits == [("errors.py", "return np.asarray(value, dtype=float)")]
    assert hits[0][1] in inspect.getsource(errors.require_float_array)
