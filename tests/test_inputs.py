"""The typed-input contract of the public API.

A caller's numbers become floats in ``dpcomm.errors`` only, so any junk in a
number or sequence parameter of an exported callable either is accepted or
raises one of the ``dpcomm.errors`` types, never a bare Python error. A wrong
object type (a number where an instance, a config or a policy belongs) is left
to Python's own ``AttributeError`` or ``TypeError`` and is not probed here.
"""

import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpcomm
from dpcomm import errors
from dpcomm.errors import (InvalidParameterError, require_float_array, require_float_in,
                           require_floats, require_iterable)
from dpcomm.gaussian_sender import objective_grad_diag

#: The junk values: non-numbers, a numeric string, a one-item list, the
#: non-finite floats, signs and zero, a bool, an integer beyond the float
#: range, a fraction, a subnormal and the integral floats 0.0 and 1.0.
JUNK = (None, "abc", "1.0", [1.0], math.nan, math.inf, -math.inf, -1, 0, True, 10**400, 2.5,
        1e-320, 0.0, 1.0)

TYPED = tuple(obj for obj in vars(errors).values()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and obj.__module__ == errors.__name__)


def _cases() -> dict:
    """Exported callable name -> (valid keyword arguments, the number and
    sequence parameters among them). Every count is small, so one call takes
    milliseconds."""
    d = dpcomm
    budget = d.PrivacyBudget(2.0, 1e-4)
    params = d.MechanismParams(1.0, 0.005, 0.5, 1000)
    result = d.calibrate_step(budget, params)
    point = d.RdpPoint(2.0, 0.5)
    instance = d.BinarySumsInstance((1, 0), (1.0, 1.0), "aware")
    game = d.make_binary_sums_cgp((2.0, 2.0), (1.0, 1.0))
    profile = d.StrategyProfile((0.2, 0.3))
    dist = d.GaussianMessageDist.from_diagonal([0.0, 1.0], [2.0, 1.0])
    problem = d.SenderProblem(dist, 0.5)
    mech = d.RrMechanism(0.25)
    msg = d.clip([0.5, -0.2], 1.0)
    cfg_args = dict(num_agents=1, horizon=2, discount=0.9, reward_alpha=0.1, reward_beta=0.2,
                    initial_savings=(1.0,), spend_grid=(0.0, 1.0), privacy_grid=(0.0, 1.0),
                    team_weights=(1.0,))
    cfg = d.MrsConfig(**cfg_args)
    start = cfg.start_state()
    action = d.MrsAction(1.0, 0.5)
    policies = d.find_mpg_nash(cfg, start).policies
    return {
        # accountant
        "CalibrationResult": (dict(sigma_sq=1.0, alpha=2.0, beta=0.5, sigma_prime_sq=1.0,
                                   feasible=True), ("sigma_sq", "alpha", "beta", "sigma_prime_sq")),
        "MechanismParams": (dict(clip_norm=1.0, sample_rate_data=0.01, sample_rate_agents=0.5,
                                 num_agents=4, episode_len=2),
                            ("clip_norm", "sample_rate_data", "sample_rate_agents", "num_agents",
                             "episode_len")),
        "PrivacyBudget": (dict(epsilon=1.0, delta=1e-5), ("epsilon", "delta")),
        "RdpPoint": (dict(alpha=2.0, rho=0.5), ("alpha", "rho")),
        "calibrate_episode": (dict(budget=budget, params=params), ()),
        "calibrate_step": (dict(budget=budget, params=params), ()),
        "compose": (dict(points=[point, point]), ()),
        "gaussian_rdp": (dict(sensitivity=2.0, sigma=3.0, alpha=2.0),
                         ("sensitivity", "sigma", "alpha")),
        "rdp_to_dp": (dict(point=point, delta=1e-5), ("delta",)),
        "round_trip": (dict(result=result, budget=budget, params=params), ()),
        "subsampled_gaussian_rdp": (dict(sensitivity=2.0, sigma=4.0, alpha=2.0, gamma=0.01),
                                    ("sensitivity", "sigma", "alpha", "gamma")),
        # binary_sums
        "BinarySumsInstance": (dict(bits=(1, 0), epsilons=(1.0, 1.0), receiver_mode="naive"),
                               ("bits", "epsilons")),
        "BinarySumsOutcome": (dict(guesses=(1.0,), utilities=(0.0,), team_reward=0.0,
                                   mc_std_errors=(0.0,)),
                              ("guesses", "utilities", "team_reward", "mc_std_errors")),
        "analytic_outcome": (dict(instance=instance), ()),
        "run_game": (dict(instance=instance, trials=100, rng_seed=1, jobs=1),
                     ("trials", "rng_seed", "jobs")),
        # cgp
        "CgpInstance": (dict(benefit_weight=(2.0, 2.0), privacy_weight=(1.0, 1.0),
                             value_fn=game.value_fn, standalone_values=(-0.5, -0.5),
                             privacy_loss_fn=game.privacy_loss_fn, benefit_fn=game.benefit_fn),
                        ("benefit_weight", "privacy_weight", "standalone_values")),
        "NashResult": (dict(profile=profile, converged=True, sweeps=1, max_gain=0.0),
                       ("sweeps", "max_gain")),
        "StrategyProfile": (dict(p=(0.2, 0.3)), ("p",)),
        "best_response": (dict(instance=game, player=0, opponent_p=0.3, grid_step=0.05),
                          ("player", "opponent_p", "grid_step")),
        "find_nash": (dict(instance=game, start=profile, max_iters=3, tol=1e-8, grid_step=0.05,
                           scan_step=0.01), ("max_iters", "tol", "grid_step", "scan_step")),
        "is_potential_game": (dict(instance=game, grid_step=0.2, tol=1e-6), ("grid_step", "tol")),
        "make_binary_sums_cgp": (dict(benefit_weight=(2.0, 2.0), privacy_weight=(1.0, 1.0)),
                                 ("benefit_weight", "privacy_weight")),
        "max_unilateral_gain": (dict(instance=game, profile=profile, step=0.01), ("step",)),
        "utility": (dict(instance=game, profile=profile), ()),
        "value_partials_match": (dict(instance=game, grid_step=0.2, tol=1e-6),
                                 ("grid_step", "tol")),
        # gaussian_sender
        "GaussianMessageDist": (dict(mean=[0.0], cov=[[1.0]]), ("mean", "cov")),
        "SenderProblem": (dict(target=dist, noise_var=0.5), ("noise_var",)),
        "SenderSolution": (dict(dist=dist, kl=0.0), ("kl",)),
        "aware_optimum": (dict(problem=problem), ()),
        "aware_optimum_gd": (dict(problem=problem, steps=20, learning_rate=0.1),
                             ("steps", "learning_rate")),
        "kl_gaussian": (dict(p=dist, q=dist), ()),
        "oblivious_optimum": (dict(problem=problem), ()),
        "sample_message": (dict(dist=dist, noise_var=0.5, rng_seed=1, size=3),
                           ("noise_var", "rng_seed", "size")),
        # mechanisms
        "ClippedVector": (dict(values=[0.5], clip_norm=1.0), ("values", "clip_norm")),
        "RrMechanism": (dict(flip_prob=0.25), ("flip_prob",)),
        "aware_guess": (dict(own_bit=1, received=[0, 1], p=0.25), ("own_bit", "received", "p")),
        "clip": (dict(values=[3.0, 4.0], clip_norm=1.0), ("values", "clip_norm")),
        "gaussian_perturb": (dict(msg=msg, sigma=0.5, rng_seed=1, size=3),
                             ("sigma", "rng_seed", "size")),
        "naive_bias": (dict(bits=[1, 0, 1], agent=0, p=0.25), ("bits", "agent", "p")),
        "naive_guess": (dict(own_bit=1, received=[0, 1]), ("own_bit", "received")),
        "rr_flip_prob": (dict(epsilon=1.0), ("epsilon",)),
        "rr_perturb": (dict(bit=1, mech=mech, rng_seed=1, size=3), ("bit", "rng_seed", "size")),
        "subsample": (dict(items=[1, 2, 3, 4], rate=0.5, rng_seed=1),
                      ("items", "rate", "rng_seed")),
        # multi_round
        "MpgNashResult": (dict(policies=policies, converged=True, sweeps=1,
                               potential_trace=(0.0,)), ("sweeps", "potential_trace")),
        "MrsAction": (dict(spend=1.0, privacy=0.5), ("spend", "privacy")),
        "MrsConfig": (cfg_args, tuple(cfg_args)),
        "MrsState": (dict(savings=(1.0,), step=0), ("savings", "step")),
        "TabularPolicy": (dict(agent=0), ("agent",)),
        "best_response_policy": (dict(policies=policies, agent=0, cfg=cfg, start=start),
                                 ("agent",)),
        "find_mpg_nash": (dict(cfg=cfg, start=start, max_sweeps=3), ("max_sweeps",)),
        "policy_value": (dict(policies=policies, agent=0, cfg=cfg, start=start), ("agent",)),
        "potential": (dict(state=start, actions=[action], cfg=cfg), ()),
        "potential_value": (dict(policies=policies, cfg=cfg, start=start), ()),
        "step_reward": (dict(state=start, actions=[action], agent=0, cfg=cfg), ("agent",)),
        "theta": (dict(state=start, actions=[action], agent=0, cfg=cfg), ("agent",)),
        "transition": (dict(state=start, actions=[action]), ()),
        "verify_mpg": (dict(cfg=cfg, start=start, tol=1e-12), ("tol",)),
    }


CASES = _cases()


def test_every_exported_callable_has_a_case():
    callables = {name for name in dpcomm.__all__ if getattr(dpcomm, name) not in TYPED}
    assert set(CASES) == callables
    for name, (kwargs, probed) in CASES.items():
        signature = inspect.signature(getattr(dpcomm, name))
        signature.bind(**kwargs)  # the valid arguments fit the callable
        assert set(probed) <= set(signature.parameters), name


def test_valid_arguments_are_accepted():
    for name, (kwargs, _) in CASES.items():
        getattr(dpcomm, name)(**kwargs)


@settings(max_examples=50, deadline=None)
@given(junk=st.sampled_from(JUNK))
def test_junk_number_or_sequence_never_escapes(junk):
    # Each of these raised a bare TypeError, ValueError or OverflowError once:
    # a scalar or None for a list of numbers, a non-numeric entry, 10**400.
    for name, (kwargs, probed) in CASES.items():
        for param in probed:
            try:
                getattr(dpcomm, name)(**{**kwargs, param: junk})
            except TYPED:
                pass
            except Exception as exc:
                pytest.fail(f"{name}({param}={junk!r}) raised {type(exc).__name__}: {exc}")


# Each of these escaped as a bare Python error before the conversions went
# through the helpers in dpcomm.errors.
_MRS = CASES["MrsConfig"][0]
_PROBLEM = CASES["aware_optimum"][0]["problem"]


@pytest.mark.parametrize("call, name", [
    (lambda: dpcomm.clip([10**400], 1.0), "values"),
    (lambda: dpcomm.clip(["abc"], 1.0), "values"),
    (lambda: objective_grad_diag(_PROBLEM, ["abc", 0], [1, 1]), "mean"),
    (lambda: objective_grad_diag(_PROBLEM, [10**400, 0], [1, 1]), "mean"),
    (lambda: dpcomm.BinarySumsInstance(None, (1.0,), "naive"), "bits"),
    (lambda: dpcomm.BinarySumsInstance((1,), 1.0, "naive"), "epsilons"),
    (lambda: dpcomm.StrategyProfile(0.5), "p"),
    (lambda: dpcomm.make_binary_sums_cgp(2.0, [1.0, 1.0]), "benefit_weight"),
    (lambda: dpcomm.MrsConfig(**{**_MRS, "initial_savings": 2.0}), "initial_savings"),
    (lambda: dpcomm.MrsConfig(**{**_MRS, "spend_grid": None}), "spend_grid"),
    (lambda: dpcomm.MrsConfig(**{**_MRS, "team_weights": 1.0}), "team_weights"),
    (lambda: dpcomm.MrsState(2.0, 0), "savings"),
    (lambda: dpcomm.MrsState(("abc",), 0), "savings"),
    (lambda: dpcomm.subsample(5, 0.5, 0), "items"),
    (lambda: dpcomm.subsample(None, 0.5, 0), "items"),
    (lambda: dpcomm.GaussianMessageDist([[0.0], [1.0]], [[1.0, 0.0], [0.0, 1.0]]), "mean"),
    (lambda: dpcomm.GaussianMessageDist.from_diagonal([[0.0], [1.0]], [1.0, 1.0]), "mean"),
    (lambda: dpcomm.GaussianMessageDist.from_diagonal([0.0], 1.0), "variances"),
    (lambda: dpcomm.GaussianMessageDist.from_diagonal([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]),
     "variances"),
], ids=["clip-huge", "clip-abc", "grad-abc", "grad-huge", "bits-none", "epsilons-scalar",
        "profile-scalar", "cgp-scalar", "savings-scalar", "grid-none", "weights-scalar",
        "state-scalar", "state-abc", "items-int", "items-none", "mean-column",
        "diagonal-mean-column", "variances-scalar", "variances-matrix"])
def test_bare_errors_now_typed(call, name):
    with pytest.raises(InvalidParameterError, match=f"^{name} "):
        call()


def test_numeric_string_saving_is_stored_as_float():
    assert dpcomm.MrsState(("1.5",), 0).savings == (1.5,)
    assert dpcomm.MrsState(("1.5",), 0) == dpcomm.MrsState((1.5,), 0)


class TestHelpers:
    def test_require_floats(self):
        assert require_floats("x", [1, "2.5", True]) == (1.0, 2.5, 1.0)
        assert require_floats("x", (v for v in (3, 4))) == (3.0, 4.0)
        assert require_floats("x", []) == ()

    @pytest.mark.parametrize("value", [None, 2.0, 5, "12", "abc"])
    def test_require_floats_needs_a_sequence(self, value):
        # A string is not a sequence of numbers: "12" is not (1.0, 2.0).
        with pytest.raises(InvalidParameterError, match="x must be a sequence"):
            require_floats("x", value)

    @pytest.mark.parametrize("value, message", [
        (["abc"], "x must be a number, got 'abc'"),
        ([1.0, None], "x must be a number, got None"),
        ([10**400], "x holds an integer beyond the float range"),
    ])
    def test_require_floats_entries(self, value, message):
        with pytest.raises(InvalidParameterError, match=message):
            require_floats("x", value)

    def test_require_float_in(self):
        assert require_float_in("x", "0.5", lambda v: 0 < v < 1, "be in (0,1)") == 0.5
        with pytest.raises(InvalidParameterError, match=r"^x must be in \(0,1\), got 2\.0$"):
            require_float_in("x", 2, lambda v: 0 < v < 1, "be in (0,1)")
        with pytest.raises(InvalidParameterError, match="^x must be a number"):
            require_float_in("x", "abc", lambda v: 0 < v < 1, "be in (0,1)")

    def test_require_iterable(self):
        assert require_iterable("x", range(3)) == (0, 1, 2)
        assert require_iterable("x", {"a": 1}) == ("a",)
        with pytest.raises(InvalidParameterError, match="x must be a sequence, got 3"):
            require_iterable("x", 3)

    def test_require_float_array(self):
        assert require_float_array("x", [1, 2]).tolist() == [1.0, 2.0]
        with pytest.raises(InvalidParameterError, match="x holds an integer beyond"):
            require_float_array("x", [[10**400]])
        with pytest.raises(InvalidParameterError, match="x must be numbers"):
            require_float_array("x", [[0.0, 1.0], [1.0]])
