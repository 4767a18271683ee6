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
descent, mirroring how a learned sender would optimize the same objective.
There are two descents: the diagonal one (mean plus variances) is
``diagonal_sender``'s loop on Python floats, which ``dpcomm sender`` runs too,
and ``mode="full"`` descends on a dense covariance factor in numpy here. Both
stop by one rule, ``_settled``.

A ``GaussianMessageDist`` is checked and eigendecomposed once, when built, and
keeps the decomposition for the target checks, the closed-form shrink and the
sampler; a diagonal covariance needs no ``eigh`` and is stored exactly. Every
covariance is stored by ``_store``, exactly symmetric, and the aware optimum is
built from its target's decomposition without a second check or ``eigh``.
There are two KL kernels: ``diagonal_sender._diagonal_kl`` scores a diagonal
message (the diagonal descent, ``objective_grad_diag`` and both optima), and
``_sent_kl`` a dense one (``kl_gaussian`` and ``mode="full"``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

import numpy as np

from .diagonal_sender import (_EIG_FLOOR, _GD_LEARNING_RATE, _GD_STEPS, _bad_steps,
                              _check_dimension, _check_lowest_eigenvalue, _check_noise_var,
                              _closed_form_kls, _descent_params, _diagonal_descent,
                              _diagonal_kl, _fsum, _not_finite_error, _sender_problem, _settled,
                              _singular)
from .errors import (InvalidParameterError, SingularTargetError, StepSizeError, require_count,
                     require_float_array)
from .rng import substream

_SYM_TOL = 1e-12


def _symmetric_part(matrix: np.ndarray) -> np.ndarray:
    """(matrix + matrix.T) / 2 without overflow: where two finite entries
    overflow their sum, their halves are added, which rounds the same, since
    halving floats that large is exact."""
    with np.errstate(over="ignore"):
        total = matrix + matrix.T
    return np.where(np.isinf(total), matrix / 2.0 + matrix.T / 2.0, total / 2.0)


def _clipped_eigh(matrix: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """One ``eigh`` of the symmetric part of ``matrix``: its smallest
    eigenvalue, its eigenvalues clipped at 0, and its eigenvectors.

    A matrix whose off-diagonal entries are all zero skips ``eigh``: its
    eigenvalues are its diagonal and its eigenvectors the identity, so a
    covariance reassembled from them is the clipped diagonal exactly. LAPACK
    scales a matrix with an entry near the float maximum, which rounds the
    other entries."""
    if not matrix[~np.eye(len(matrix), dtype=bool)].any():
        diagonal = np.diagonal(matrix)
        clipped = np.where(diagonal > 0.0, diagonal, 0.0)  # -0.0 is stored as 0.0
        return diagonal.min(initial=0.0), clipped, np.eye(len(matrix))
    eigvals, eigvecs = np.linalg.eigh(_symmetric_part(matrix))
    return eigvals.min(initial=0.0), np.clip(eigvals, 0.0, None), eigvecs


def _store(dist, mean: np.ndarray, eigvals: np.ndarray, eigvecs: np.ndarray) -> None:
    """The one place a distribution's fields are set: the covariance is
    (V * lambda) V^T, made exactly symmetric, so a stored covariance always
    passes the constructor's symmetry check again."""
    object.__setattr__(dist, "mean", mean)
    object.__setattr__(dist, "cov", _symmetric_part((eigvecs * eigvals) @ eigvecs.T))
    object.__setattr__(dist, "_eigvals", eigvals)
    object.__setattr__(dist, "_eigvecs", eigvecs)


@dataclass(frozen=True, eq=False)
class GaussianMessageDist:
    """Mean and covariance of a stochastic message, with the eigenvalues
    (clipped at 0) and eigenvectors the covariance was projected with."""

    mean: np.ndarray
    cov: np.ndarray
    _eigvals: np.ndarray = field(init=False, repr=False)
    _eigvecs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mean = np.atleast_1d(require_float_array("mean", self.mean))
        if mean.ndim != 1:
            raise InvalidParameterError(f"mean must be a vector, got shape {mean.shape}")
        cov = require_float_array("covariance", self.cov)
        _check_dimension(cov.shape, mean.size)
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise _not_finite_error(mean.tolist(), cov.tolist())
        if np.abs(cov - cov.T).max(initial=0.0) > _SYM_TOL:
            raise InvalidParameterError("covariance must be symmetric")
        lowest, eigvals, eigvecs = _clipped_eigh(cov)
        _check_lowest_eigenvalue(lowest, eigvals.max(initial=0.0))
        _store(self, mean, eigvals, eigvecs)

    @classmethod
    def _from_decomposition(cls, mean, eigvals, eigvecs) -> "GaussianMessageDist":
        """A distribution from a mean and a decomposition that were checked
        already: no check and no ``eigh`` runs again."""
        dist = object.__new__(cls)
        _store(dist, mean, eigvals, eigvecs)
        return dist

    @classmethod
    def from_diagonal(cls, mean, variances) -> "GaussianMessageDist":
        mean = require_float_array("mean", mean)
        variances = require_float_array("variances", variances)
        if variances.ndim != 1:
            raise InvalidParameterError(f"variances must be a vector, got shape {variances.shape}")
        return cls(mean, np.diag(variances))

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True, eq=False)
class SenderProblem:
    """A target message distribution and the channel's noise variance."""

    target: GaussianMessageDist
    noise_var: float

    def __post_init__(self):
        object.__setattr__(self, "noise_var", _sender_problem(self.target._eigvals, self.noise_var))

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
    +inf (a degenerate distribution has no density against q). Both are
    decided by ``_rank_deficient`` on the stored spectrum.
    """
    if p.dim != q.dim:
        raise InvalidParameterError("distributions must share one dimension")
    target_terms = _target_terms(q)
    if _rank_deficient(p):
        return math.inf
    return _sent_kl(*target_terms, p.mean - q.mean, p.cov)


def oblivious_optimum(problem: SenderProblem) -> SenderSolution:
    """Sender that ignores the noise: emits the target distribution itself.

    Returned KL is the divergence actually incurred by the post-noise message
    N(mu*, Sigma* + noise_var * I) from the target.
    """
    target = problem.target
    return SenderSolution(target, _closed_form_kls(target._eigvals.tolist(), problem.noise_var)[0])


def aware_optimum(problem: SenderProblem) -> SenderSolution:
    """Noise-aware sender: minimizes the post-noise KL in closed form.

    mu = mu*, Sigma = positive part of (Sigma* - noise_var * I) in the
    target's eigenbasis. The KL is 0 exactly when Sigma* - noise_var * I is
    PSD; otherwise only the over-noised eigendirections contribute.
    """
    target = problem.target
    shrunk = np.clip(target._eigvals - problem.noise_var, 0.0, None)
    dist = GaussianMessageDist._from_decomposition(target.mean, shrunk, target._eigvecs)
    return SenderSolution(dist, _closed_form_kls(target._eigvals.tolist(), problem.noise_var)[1])


def _rank_deficient(dist: GaussianMessageDist) -> bool:
    """Whether a covariance is singular to working precision: its smallest
    stored eigenvalue is at most d * eps times its largest."""
    return _singular(dist._eigvals.min(), dist._eigvals.max(), dist.dim)


def _target_terms(target: GaussianMessageDist) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of a covariance; SingularTargetError unless it is PD."""
    sign, logdet = np.linalg.slogdet(target.cov)
    if _rank_deficient(target) or sign <= 0:
        raise SingularTargetError("q covariance must be positive-definite")
    return np.linalg.inv(target.cov), float(logdet)


def _sent_kl(target_inv: np.ndarray, logdet_q: float, diff: np.ndarray,
             sent: np.ndarray) -> float:
    """KL of a message against a checked target, on raw arrays: diff = mu - mu*,
    and ``sent`` is the message's (for a sender, post-noise) dense covariance,
    factored by one Cholesky. A degenerate message gives +inf, and so does a
    quadratic form that overflows, since a positive-definite form is >= 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        quad = float(diff @ target_inv @ diff)
    if not math.isfinite(quad):
        return math.inf
    try:
        chol = np.linalg.cholesky(sent)
    except np.linalg.LinAlgError:
        return math.inf
    logdet_p = 2.0 * float(np.log(np.diag(chol)).sum())
    trace = float(np.sum(target_inv * sent))
    return 0.5 * (logdet_q - logdet_p + trace + quad - diff.size)


def objective_grad_diag(problem: SenderProblem, mean: np.ndarray, variances: np.ndarray):
    """Post-noise KL objective and its analytic gradient for a diagonal sender.

    The sender is N(mean, diag(variances)); the objective is
    KL(N(mean, diag(variances) + noise_var * I) || target). Returns
    (value, d/dmean, d/dvariances).
    """
    mean = require_float_array("mean", mean)
    variances = require_float_array("variances", variances)
    if mean.shape != (problem.dim,) or variances.shape != (problem.dim,):
        raise InvalidParameterError(
            f"mean {mean.shape} and variances {variances.shape} must have shape ({problem.dim},)"
        )
    if not (np.isfinite(mean).all() and np.isfinite(variances).all()):
        raise InvalidParameterError(
            f"mean and variances must be finite, got mean {mean.tolist()} "
            f"and variances {variances.tolist()}"
        )
    if variances.min() < _EIG_FLOOR:
        raise InvalidParameterError(f"variances must be nonnegative, got {variances.min():.3g}")
    target_inv, logdet_q = _target_terms(problem.target)
    target_inv_diag = np.diag(target_inv)
    diff = mean - problem.target.mean
    sent = variances + problem.noise_var
    grad_mean = target_inv @ diff
    value = _diagonal_kl(target_inv_diag.tolist(), logdet_q,
                         _fsum(map(mul, diff.tolist(), grad_mean.tolist())), sent.tolist())
    with np.errstate(divide="ignore"):  # a zero variance at noise 0: the KL is +inf
        grad_variances = 0.5 * (target_inv_diag - 1.0 / sent)
    return value, grad_mean, grad_variances


def aware_optimum_gd(problem: SenderProblem, steps: int = _GD_STEPS,
                     learning_rate: float = _GD_LEARNING_RATE,
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

    The target is checked once. ``diagonal`` mode then runs the float loop
    ``diagonal_sender._diagonal_descent``, which ``dpcomm sender`` runs too;
    ``full`` mode runs on raw arrays. Each evaluates the post-noise KL once per
    step and stops at the first step that ``_settled`` accepts: one that leaves
    the mean and the variances, or the mean and the factor, as they were.
    """
    if mode not in ("diagonal", "full"):
        raise InvalidParameterError(f"mode must be 'diagonal' or 'full', got {mode!r}")
    steps, learning_rate = _descent_params(steps, learning_rate)
    d = problem.dim
    target_mean = problem.target.mean
    target_inv, logdet_q = _target_terms(problem.target)
    if mode == "diagonal":
        # The loop looks for non-finite iterates itself, so numpy's warnings
        # about an overflowing precision product would say nothing new.
        with np.errstate(over="ignore", invalid="ignore"):
            mean, variances, kl, _ = _diagonal_descent(
                target_mean.tolist(), np.diag(target_inv).tolist(), logdet_q,
                lambda diff: (target_inv @ diff).tolist(), problem.noise_var, steps,
                learning_rate)
        return SenderSolution(GaussianMessageDist.from_diagonal(mean, variances), kl)
    noise_eye = problem.noise_var * np.eye(d)
    mean = np.zeros(d)
    factor = np.eye(d)
    sent = factor @ factor.T + noise_eye
    prev = _sent_kl(target_inv, logdet_q, mean - target_mean, sent)
    bad_steps = 0
    for _ in range(steps):
        grad_mean = target_inv @ (mean - target_mean)
        try:
            sent_inv = np.linalg.inv(sent)
        except np.linalg.LinAlgError:
            raise StepSizeError(
                "post-noise covariance became singular; reduce the learning rate"
            ) from None
        grad_sigma = 0.5 * (target_inv - sent_inv)
        old_mean, old_factor = mean, factor
        mean = mean - learning_rate * grad_mean
        factor = factor - learning_rate * 2.0 * (grad_sigma @ factor)
        sent = factor @ factor.T + noise_eye
        value = _sent_kl(target_inv, logdet_q, mean - target_mean, sent)
        bad_steps = _bad_steps(value, prev, bad_steps, mean, sent.ravel())
        prev = value
        if _settled(mean, old_mean, factor.ravel(), old_factor.ravel()):
            break
    return SenderSolution(GaussianMessageDist(mean, factor @ factor.T), prev)


def sample_message(dist: GaussianMessageDist, noise_var: float, rng_seed: int,
                   size: int | None = None):
    """Draw a message by the reparameterized path and add channel noise.

    p = mu + Sigma^{1/2} xi with xi standard normal, then u ~ N(0,
    noise_var * I) is added, so the output is distributed
    N(mu, Sigma + noise_var * I). Deterministic given the seed.
    """
    noise_var = _check_noise_var(noise_var)
    rng = substream(rng_seed)
    d = dist.dim
    n = 1 if size is None else require_count("size", size, 0)
    root = (dist._eigvecs * np.sqrt(dist._eigvals)) @ dist._eigvecs.T
    xi = rng.standard_normal((n, d))
    out = dist.mean + xi @ root.T
    out = out + math.sqrt(noise_var) * rng.standard_normal((n, d))
    return out[0] if size is None else out
