"""Stochastic Gaussian message sender under additive privacy noise.

A sender draws its message from N(mu, Sigma) and the channel adds independent
N(0, noise_var * I), so the receiver sees N(mu, Sigma + noise_var * I). Given
a target message distribution N(mu*, Sigma*), a noise-oblivious sender
matches the target before the noise (and eats the mismatch after it), while a
noise-aware sender shapes (mu, Sigma) so that the post-noise distribution is
as close as possible to the target in KL. The aware optimum has a closed
form: mu = mu* and Sigma the positive part of (Sigma* - noise_var * I) in the
target's eigenbasis, which cancels the noise exactly whenever the target
covariance dominates it. The aware sender is never worse than the oblivious
one, and strictly better whenever noise_var > 0.

``aware_optimum_gd`` reproduces the closed form with projected gradient
descent (mean plus diagonal variances, or a full covariance factor), mirroring
how a learned sender would optimize the same objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, SingularTargetError, StepSizeError, require_count
from .rng import substream

_SYM_TOL = 1e-12
_EIG_FLOOR = -1e-12
_TARGET_MIN_EIG = 1e-9


def positive_part(matrix: np.ndarray) -> np.ndarray:
    """Project a symmetric matrix onto the PSD cone (eigenvalue clipping).

    Idempotent: applying it twice gives the same matrix as applying it once.
    """
    sym = (matrix + matrix.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    return (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T


@dataclass(frozen=True, eq=False)
class GaussianMessageDist:
    """Mean and covariance of a stochastic message."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.asarray(self.cov, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise InvalidParameterError(
                f"covariance shape {cov.shape} does not match dimension {mean.size}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise InvalidParameterError(
                f"mean and covariance must be finite, got mean {mean.tolist()} "
                f"and covariance {cov.tolist()}"
            )
        if not np.allclose(cov, cov.T, atol=_SYM_TOL, rtol=0.0):
            raise InvalidParameterError("covariance must be symmetric")
        eigvals = np.linalg.eigvalsh((cov + cov.T) / 2.0)
        if eigvals.min(initial=0.0) < _EIG_FLOOR:
            raise InvalidParameterError(
                f"covariance has negative eigenvalue {eigvals.min():.3g}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", positive_part(cov))

    @classmethod
    def from_diagonal(cls, mean, variances) -> "GaussianMessageDist":
        return cls(np.asarray(mean, dtype=float), np.diag(np.asarray(variances, dtype=float)))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class SenderProblem:
    """A target message distribution and the channel's noise variance."""

    target: GaussianMessageDist
    noise_var: float

    def __post_init__(self):
        if not 0 <= self.noise_var < math.inf:
            raise InvalidParameterError(f"noise_var must be finite and >= 0, got {self.noise_var}")
        eigvals = np.linalg.eigvalsh(self.target.cov)
        if eigvals.min() < _TARGET_MIN_EIG:
            raise InvalidParameterError(
                f"target covariance must be positive-definite (min eigenvalue "
                f"{eigvals.min():.3g} < {_TARGET_MIN_EIG})"
            )

    @property
    def dim(self) -> int:
        return self.target.dim


@dataclass(frozen=True, eq=False)
class SenderSolution:
    dist: GaussianMessageDist  # pre-noise message distribution
    kl: float                  # KL of the post-noise message against the target


def kl_gaussian(p: GaussianMessageDist, q: GaussianMessageDist) -> float:
    """KL(N_p || N_q) between multivariate Gaussians:

        0.5 * ( ln |Sigma_q|/|Sigma_p| + tr(Sigma_q^-1 Sigma_p)
                + (mu_p - mu_q)^T Sigma_q^-1 (mu_p - mu_q) - d )

    Requires a positive-definite q covariance; a singular p covariance gives
    +inf (a degenerate distribution has no density against q).
    """
    if p.dim != q.dim:
        raise InvalidParameterError("distributions must share one dimension")
    sign_q, logdet_q = np.linalg.slogdet(q.cov)
    if sign_q <= 0 or np.linalg.eigvalsh(q.cov).min() <= 0:
        raise SingularTargetError("q covariance must be positive-definite")
    sign_p, logdet_p = np.linalg.slogdet(p.cov)
    if sign_p <= 0:
        return math.inf
    diff = p.mean - q.mean
    solve = np.linalg.solve
    trace = float(np.trace(solve(q.cov, p.cov)))
    quad = float(diff @ solve(q.cov, diff))
    return 0.5 * (logdet_q - logdet_p + trace + quad - p.dim)


def _sent(dist: GaussianMessageDist, noise_var: float) -> GaussianMessageDist:
    """Post-noise message distribution, N(mu, Sigma + noise_var * I)."""
    return GaussianMessageDist(dist.mean, dist.cov + noise_var * np.eye(dist.dim))


def oblivious_optimum(problem: SenderProblem) -> SenderSolution:
    """Sender that ignores the noise: emits the target distribution itself.

    Returned KL is the divergence actually incurred by the post-noise message
    N(mu*, Sigma* + noise_var * I) from the target.
    """
    dist = GaussianMessageDist(problem.target.mean, problem.target.cov)
    return SenderSolution(dist, kl_gaussian(_sent(dist, problem.noise_var), problem.target))


def aware_optimum(problem: SenderProblem) -> SenderSolution:
    """Noise-aware sender: minimizes the post-noise KL in closed form.

    mu = mu*, Sigma = positive part of (Sigma* - noise_var * I) in the
    target's eigenbasis. The KL is 0 exactly when Sigma* - noise_var * I is
    PSD; otherwise only the over-noised eigendirections contribute.
    """
    eigvals, eigvecs = np.linalg.eigh(problem.target.cov)
    shrunk = np.clip(eigvals - problem.noise_var, 0.0, None)
    cov = (eigvecs * shrunk) @ eigvecs.T
    dist = GaussianMessageDist(problem.target.mean, cov)
    return SenderSolution(dist, kl_gaussian(_sent(dist, problem.noise_var), problem.target))


def _target_terms(target: GaussianMessageDist) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of the target covariance, checked once.

    The same positive-definiteness test ``kl_gaussian`` applies to its q.
    """
    sign, logdet = np.linalg.slogdet(target.cov)
    if sign <= 0 or np.linalg.eigvalsh(target.cov).min() <= 0:
        raise SingularTargetError("q covariance must be positive-definite")
    return np.linalg.inv(target.cov), float(logdet)


def _sent_kl(target_inv: np.ndarray, logdet_q: float, diff: np.ndarray,
             sent: np.ndarray) -> float:
    """``kl_gaussian`` of a post-noise message against a checked target, on raw arrays.

    diff = mu - mu*. ``sent`` is the post-noise covariance: a vector of
    variances for a diagonal sender (O(d) work past the quadratic form) or a
    dense matrix (one Cholesky). A degenerate message gives +inf.
    """
    if sent.ndim == 1:
        if sent.min() <= 0:
            return math.inf
        logdet_p = float(np.log(sent).sum())
        trace = float(np.diag(target_inv) @ sent)
    else:
        try:
            chol = np.linalg.cholesky(sent)
        except np.linalg.LinAlgError:
            return math.inf
        logdet_p = 2.0 * float(np.log(np.diag(chol)).sum())
        trace = float(np.sum(target_inv * sent))
    return 0.5 * (logdet_q - logdet_p + trace + float(diff @ target_inv @ diff) - diff.size)


def objective_grad_diag(problem: SenderProblem, mean: np.ndarray, variances: np.ndarray):
    """Post-noise KL objective and its analytic gradient for a diagonal sender.

    The sender is N(mean, diag(variances)); the objective is
    KL(N(mean, diag(variances) + noise_var * I) || target). Returns
    (value, d/dmean, d/dvariances).
    """
    mean = np.asarray(mean, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if mean.shape != (problem.dim,) or variances.shape != (problem.dim,):
        raise InvalidParameterError(
            f"mean {mean.shape} and variances {variances.shape} must have shape ({problem.dim},)"
        )
    if variances.min() < _EIG_FLOOR:
        raise InvalidParameterError(f"variances must be nonnegative, got {variances.min():.3g}")
    target_inv, logdet_q = _target_terms(problem.target)
    diff = mean - problem.target.mean
    sent_vars = variances + problem.noise_var
    value = _sent_kl(target_inv, logdet_q, diff, sent_vars)
    grad_mean = target_inv @ diff
    grad_var = 0.5 * (np.diag(target_inv) - 1.0 / sent_vars)
    return value, grad_mean, grad_var


def aware_optimum_gd(problem: SenderProblem, steps: int = 5000, learning_rate: float = 0.1,
                     mode: str = "diagonal") -> SenderSolution:
    """Noise-aware optimization by projected gradient descent.

    ``diagonal`` mode descends on (mean, per-coordinate variances) with the
    variances projected back onto [0, inf) after every step, so the solver
    can reach the boundary exactly; on diagonal targets it matches
    ``aware_optimum`` to high accuracy. ``full`` mode descends on a dense
    covariance factor A with Sigma = A A^T. Raises StepSizeError when the
    objective increases for 10 consecutive steps, or when a step overflows
    the iterate or leaves a singular post-noise covariance to invert, so a
    returned iterate is always finite.

    The target is checked once; the loop then runs on raw arrays and
    evaluates the post-noise KL once per step.
    """
    if mode not in ("diagonal", "full"):
        raise InvalidParameterError(f"mode must be 'diagonal' or 'full', got {mode!r}")
    require_count("steps", steps, 1)
    if not 0 <= learning_rate < math.inf:
        raise InvalidParameterError(f"learning_rate must be finite and >= 0, got {learning_rate}")
    d = problem.dim
    noise = problem.noise_var
    target_mean = problem.target.mean
    target_inv, logdet_q = _target_terms(problem.target)
    target_inv_diag = np.diag(target_inv)
    noise_eye = noise * np.eye(d)
    mean = np.zeros(d)
    if mode == "diagonal":
        variances = np.ones(d)
    else:
        factor = np.eye(d)

    def sent_cov() -> np.ndarray:
        """Post-noise covariance: a vector of variances in diagonal mode."""
        return variances + noise if mode == "diagonal" else factor @ factor.T + noise_eye

    sent = sent_cov()
    prev = _sent_kl(target_inv, logdet_q, mean - target_mean, sent)
    bad_steps = 0
    for _ in range(steps):
        grad_mean = target_inv @ (mean - target_mean)
        if mode == "diagonal":
            grad_var = 0.5 * (target_inv_diag - 1.0 / sent)
            mean = mean - learning_rate * grad_mean
            variances = np.clip(variances - learning_rate * grad_var, 0.0, None)
        else:
            try:
                sent_inv = np.linalg.inv(sent)
            except np.linalg.LinAlgError:
                raise StepSizeError(
                    "post-noise covariance became singular; reduce the learning rate"
                ) from None
            grad_sigma = 0.5 * (target_inv - sent_inv)
            mean = mean - learning_rate * grad_mean
            factor = factor - learning_rate * 2.0 * (grad_sigma @ factor)
        sent = sent_cov()
        value = _sent_kl(target_inv, logdet_q, mean - target_mean, sent)
        # A non-finite iterate gives a non-finite KL, so only then is it looked for.
        if not math.isfinite(value) and not (np.isfinite(mean).all() and np.isfinite(sent).all()):
            raise StepSizeError("a step overflowed the iterate; reduce the learning rate")
        if math.isnan(value) or value > prev:
            bad_steps += 1
            if bad_steps >= 10:
                raise StepSizeError(
                    f"objective increased for {bad_steps} consecutive steps; "
                    "reduce the learning rate"
                )
        else:
            bad_steps = 0
        prev = value
    if mode == "diagonal":
        dist = GaussianMessageDist.from_diagonal(mean, variances)
    else:
        dist = GaussianMessageDist(mean, factor @ factor.T)
    return SenderSolution(dist, prev)


def sample_message(dist: GaussianMessageDist, noise_var: float, rng_seed: int,
                   size: int | None = None):
    """Draw a message by the reparameterized path and add channel noise.

    p = mu + Sigma^{1/2} xi with xi standard normal, then u ~ N(0,
    noise_var * I) is added, so the output is distributed
    N(mu, Sigma + noise_var * I). Deterministic given the seed.
    """
    if noise_var < 0:
        raise InvalidParameterError(f"noise_var must be nonnegative, got {noise_var}")
    rng = substream(rng_seed)
    d = dist.dim
    n = 1 if size is None else int(size)
    eigvals, eigvecs = np.linalg.eigh(dist.cov)
    root = (eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))) @ eigvecs.T
    xi = rng.standard_normal((n, d))
    out = dist.mean + xi @ root.T
    if noise_var > 0:
        out = out + math.sqrt(noise_var) * rng.standard_normal((n, d))
    return out[0] if size is None else out
