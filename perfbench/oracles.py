"""Oracle checks for the benchmark's operations.

Every check returns ``None`` when the result is right and a one-line
description of the problem otherwise. They use only the standard library so
that the same checks read the CLI's output tables and in-process results.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import NormalDist

#: Family-wise error rate of one pass's Monte-Carlo comparisons: a correct
#: program fails a pass with probability below this, at any seed.
FAMILY_ALPHA = 1e-3

ROUND_TRIP_SLACK = 1e-9    # epsilon' <= epsilon + slack (acceptance criterion 4)
GD_CLOSED_FORM_TOL = 1e-6  # gd KL - closed-form KL (acceptance criterion 7)
P_SUM_TOL = 1e-6           # |p1 + p2 - 1/2| (acceptance criterion 5)
NASH_GAIN_TOL = 1e-6
MPG_TOL = 1e-12


def bonferroni_z(comparisons: int, alpha: float = FAMILY_ALPHA) -> float:
    """Two-sided z bound that keeps ``comparisons`` tests at family-wise ``alpha``."""
    if comparisons < 1:
        raise ValueError("need at least one comparison")
    return NormalDist().inv_cdf(1.0 - alpha / (2.0 * comparisons))


def check_estimates(estimates, std_errors, expected, z: float):
    """Each estimate lies within z standard errors of its expected value."""
    for i, (est, se, want) in enumerate(zip(estimates, std_errors, expected, strict=True)):
        if not (math.isfinite(est) and se >= 0.0):
            return f"estimate {i} is {est!r} with standard error {se!r}"
        if abs(est - want) > z * se + 1e-12:
            return (f"estimate {i} = {est:.6g} is {abs(est - want) / max(se, 1e-300):.2f} SE "
                    f"from {want:.6g} (bound {z:.2f} SE)")
    return None


def check_round_trip(epsilon: float, epsilon_back: float):
    if not epsilon_back <= epsilon + ROUND_TRIP_SLACK:
        return f"round trip epsilon' = {epsilon_back!r} exceeds epsilon = {epsilon!r}"
    return None


def check_gd_gap(gd_kl: float, closed_kl: float):
    gap = gd_kl - closed_kl
    if not (math.isfinite(gap) and gap <= GD_CLOSED_FORM_TOL):
        return f"gd KL {gd_kl!r} is {gap!r} above the closed form {closed_kl!r}"
    return None


def check_mpg(is_mpg: bool, violation: float, expect_mpg: bool):
    if is_mpg != expect_mpg:
        return f"verify_mpg reported is_mpg={is_mpg} (violation {violation!r}), expected {expect_mpg}"
    if expect_mpg and not violation <= MPG_TOL:
        return f"MPG violation {violation!r} above {MPG_TOL}"
    if not expect_mpg and not violation > MPG_TOL:
        return f"non-MPG instance has violation {violation!r}"
    return None


def check_equilibrium(p1: float, p2: float, converged: bool, max_gain: float):
    if not converged:
        return f"best-response dynamics did not converge (ended at {p1!r}, {p2!r})"
    if not abs(p1 + p2 - 0.5) <= P_SUM_TOL:
        return f"p1 + p2 = {p1 + p2!r}, not within {P_SUM_TOL} of 0.5"
    if not max_gain <= NASH_GAIN_TOL:
        return f"unilateral gain {max_gain!r} above {NASH_GAIN_TOL}"
    return None


def close(got: float, want: float, rel: float = 1e-9):
    if not abs(got - want) <= rel * max(1.0, abs(want)):
        return f"got {got!r}, expected {want!r}"
    return None


# --- CLI output tables -------------------------------------------------------

def parse_table(text: str):
    """(provenance dict, list of row dicts) of a CLI CSV table."""
    provenance, body = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            provenance[key] = value
        elif line:
            body.append(line)
    rows = list(csv.DictReader(io.StringIO("\n".join(body))))
    return provenance, rows


def _floats(rows, column):
    return [float(r[column]) for r in rows]


def check_calibrate_table(rows):
    if not rows:
        return "calibrate table is empty"
    for r in rows:
        if r["feasible"] != "True":
            return f"row epsilon={r['epsilon']} T={r['episode_len']} is infeasible"
        problem = check_round_trip(float(r["epsilon"]), float(r["roundtrip_epsilon"]))
        if problem:
            return problem
    return None


def check_binary_sums_table(rows):
    if not rows:
        return "binary-sums table is empty"
    z = bonferroni_z(len(rows))
    return check_estimates(_floats(rows, "mc_guess"), _floats(rows, "mc_std_error"),
                           _floats(rows, "analytic_guess"), z)


def check_equilibrium_table(rows):
    if not rows:
        return "equilibrium table is empty"
    for r in rows:
        problem = check_equilibrium(float(r["p1"]), float(r["p2"]), r["converged"] == "True",
                                    float(r["max_unilateral_gain"]))
        if problem:
            return problem
        if r["is_potential_game"] != "True":
            return "symmetric instance not reported as a potential game"
    return None


def check_multi_round_table(rows):
    summary = [r for r in rows if r["record"] == "summary"]
    if len(summary) != 1:
        return f"expected one summary row, found {len(summary)}"
    return check_mpg(summary[0]["is_mpg"] == "True", float(summary[0]["max_violation"]), True)


def check_sender_table(rows):
    if not rows:
        return "sender table is empty"
    for r in rows:
        problem = check_gd_gap(float(r["gd_kl"]), float(r["aware_kl"]))
        if problem:
            return f"noise_var={r['noise_var']}: {problem}"
        if not float(r["aware_kl"]) <= float(r["oblivious_kl"]):
            return f"noise_var={r['noise_var']}: aware KL above oblivious KL"
    return None


TABLE_CHECKS = {
    "calibrate": check_calibrate_table,
    "binary-sums": check_binary_sums_table,
    "equilibrium": check_equilibrium_table,
    "multi-round": check_multi_round_table,
    "sender": check_sender_table,
}
