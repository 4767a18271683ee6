import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpcomm import (
    GaussianMessageDist,
    InvalidParameterError,
    SenderProblem,
    SenderSolution,
    SingularTargetError,
    StepSizeError,
    aware_optimum,
    aware_optimum_gd,
    kl_gaussian,
    oblivious_optimum,
    sample_message,
)
from dpcomm import diagonal_sender, gaussian_sender
from dpcomm.gaussian_sender import _symmetric_part, objective_grad_diag


def random_spd_target(rng, d):
    """Random SPD covariance with eigenvalues in [0.3, 3]."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigvals = rng.uniform(0.3, 3.0, size=d)
    cov = (q * eigvals) @ q.T
    return GaussianMessageDist(rng.normal(size=d), cov)


def mc_kl_estimate(p, q, n, seed):
    """Monte-Carlo oracle: E_p[log p(X) - log q(X)] from n samples."""
    rng = np.random.default_rng(seed)
    xs = rng.multivariate_normal(p.mean, p.cov, size=n)

    def logpdf(dist, x):
        d = dist.dim
        diff = x - dist.mean
        sign, logdet = np.linalg.slogdet(dist.cov)
        sol = np.linalg.solve(dist.cov, diff.T).T
        quad = np.sum(diff * sol, axis=1)
        return -0.5 * (d * math.log(2 * math.pi) + logdet + quad)

    draws = logpdf(p, xs) - logpdf(q, xs)
    return draws.mean(), 3.0 * draws.std(ddof=1) / math.sqrt(n)


_RefDist = namedtuple("_RefDist", "mean cov")


def _reference_gaussian_dist(mean, cov):
    """The ``GaussianMessageDist`` constructor before it kept its eigh, as an
    oracle: the checks and the stored (mean, covariance), or
    InvalidParameterError. ``allclose`` tests symmetry, ``eigvalsh`` the
    eigenvalue floor (-1e-12 times the largest eigenvalue, at least 1), and a
    second ``eigh`` projects onto the PSD cone; the
    projection is stored by its symmetric part, as the library stores it."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mean.size, mean.size):
        raise InvalidParameterError(f"covariance shape {cov.shape} does not match {mean.size}")
    if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
        raise InvalidParameterError("mean and covariance must be finite")
    if not np.allclose(cov, cov.T, atol=1e-12, rtol=0.0):
        raise InvalidParameterError("covariance must be symmetric")
    sym = (cov + cov.T) / 2.0
    eigvals = np.linalg.eigvalsh(sym)
    if eigvals.min(initial=0.0) < -1e-12 * max(1.0, eigvals.max(initial=0.0)):
        raise InvalidParameterError(f"covariance has negative eigenvalue {eigvals.min():.3g}")
    eigvals, eigvecs = np.linalg.eigh(sym)
    return _RefDist(mean, _symmetric_part((eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T))


def _reference_kl_gaussian(p, q):
    """``kl_gaussian`` before it shared ``_sent_kl``, as an oracle: slogdet for
    both log-determinants, ``solve`` for the trace and the quadratic form."""
    sign_q, logdet_q = np.linalg.slogdet(q.cov)
    if sign_q <= 0 or np.linalg.eigvalsh(q.cov).min() <= 0:
        raise SingularTargetError("q covariance must be positive-definite")
    sign_p, logdet_p = np.linalg.slogdet(p.cov)
    if sign_p <= 0:
        return math.inf
    diff = p.mean - q.mean
    trace = float(np.trace(np.linalg.solve(q.cov, p.cov)))
    quad = float(diff @ np.linalg.solve(q.cov, diff))
    return 0.5 * (logdet_q - logdet_p + trace + quad - p.mean.size)


def _reference_aware_optimum_gd(problem, steps=5000, learning_rate=0.1, mode="diagonal"):
    """Slow-path oracle for ``aware_optimum_gd``: the loop it replaced.

    Every iterate is rebuilt by ``_reference_gaussian_dist`` (symmetry and
    eigenvalue checks, PSD projection) and scored by ``_reference_kl_gaussian``.
    The gradient formulas, update order and bad-step rule are the fast path's.
    """
    d = problem.dim
    noise = problem.noise_var
    target_inv = np.linalg.inv(problem.target.cov)
    mean = np.zeros(d)
    variances = np.ones(d)
    factor = np.eye(d)

    def current():
        if mode == "diagonal":
            return _reference_gaussian_dist(mean, np.diag(variances))
        return _reference_gaussian_dist(mean, factor @ factor.T)

    def objective():
        dist = current()
        sent = _reference_gaussian_dist(dist.mean, dist.cov + noise * np.eye(d))
        return _reference_kl_gaussian(sent, problem.target)

    prev = objective()
    bad_steps = 0
    for _ in range(steps):
        grad_mean = target_inv @ (mean - problem.target.mean)
        if mode == "diagonal":
            sent_cov = np.diag(variances + noise)
            grad_var = 0.5 * (np.diag(target_inv) - 1.0 / np.diag(sent_cov))
            mean = mean - learning_rate * grad_mean
            variances = np.clip(variances - learning_rate * grad_var, 0.0, None)
        else:
            sent_cov = factor @ factor.T + noise * np.eye(d)
            grad_sigma = 0.5 * (target_inv - np.linalg.inv(sent_cov))
            mean = mean - learning_rate * grad_mean
            factor = factor - learning_rate * 2.0 * (grad_sigma @ factor)
        value = objective()
        if math.isnan(value) or value > prev:
            bad_steps += 1
            if bad_steps >= 10:
                raise StepSizeError("objective increased for 10 consecutive steps")
        else:
            bad_steps = 0
        prev = value
    return SenderSolution(current(), prev)


def _run(solver, problem, **kwargs):
    """A solver's solution, or None when it raised StepSizeError."""
    try:
        return solver(problem, **kwargs)
    except StepSizeError:
        return None


def assert_matches_reference(problem, **kwargs):
    """Fast path against the slow path: same iterates, KL within 1e-12."""
    ref = _run(_reference_aware_optimum_gd, problem, **kwargs)
    fast = _run(aware_optimum_gd, problem, **kwargs)
    assert (fast is None) == (ref is None)  # StepSizeError on exactly the same runs
    if ref is not None:
        assert np.array_equal(fast.dist.mean, ref.dist.mean)
        assert np.array_equal(fast.dist.cov, ref.dist.cov)
        np.testing.assert_allclose(fast.kl, ref.kl, rtol=0.0, atol=1e-12)
    return ref


def _reference_diagonal_gd(problem, steps, learning_rate):
    """Diagonal-mode ``aware_optimum_gd`` written out on its own arrays, as the
    single-row oracle: the diagonal KL with its own early +inf, and the
    bad-step rule with its messages. Returns (mean, variances, final KL) or
    raises StepSizeError."""
    d = problem.dim
    noise = problem.noise_var
    target_mean = problem.target.mean
    _, logdet_q = np.linalg.slogdet(problem.target.cov)
    target_inv = np.linalg.inv(problem.target.cov)
    target_inv_diag = np.diag(target_inv)

    def kl(diff, sent):
        if sent.min() <= 0:
            return math.inf
        logdet_p = float(np.log(sent).sum())
        trace = float(np.diag(target_inv) @ sent)
        return 0.5 * (float(logdet_q) - logdet_p + trace + float(diff @ target_inv @ diff) - d)

    mean = np.zeros(d)
    variances = np.ones(d)
    sent = variances + noise
    prev = kl(mean - target_mean, sent)
    bad_steps = 0
    for _ in range(steps):
        grad_mean = target_inv @ (mean - target_mean)
        grad_var = 0.5 * (target_inv_diag - 1.0 / sent)
        mean = mean - learning_rate * grad_mean
        variances = np.clip(variances - learning_rate * grad_var, 0.0, None)
        sent = variances + noise
        value = kl(mean - target_mean, sent)
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
    return mean, variances, prev


def _outcome(solver, *args):
    """A solver's result, or the message of the StepSizeError it raised."""
    try:
        return solver(*args)
    except StepSizeError as exc:
        return str(exc)


def _float_descent(target, noise_var, steps, learning_rate):
    """``diagonal_sender._diagonal_descent`` on a checked diagonal target
    (``_diagonal_target``'s result), as ``cmd_sender`` runs it at each noise
    level: the descent parameters checked, and the precision ``t_i * x_i``."""
    steps, learning_rate = diagonal_sender._descent_params(steps, learning_rate)
    target_inv, logdet_q = diagonal_sender._target_terms(target.variances)
    return diagonal_sender._diagonal_descent(
        target.mean, target_inv, logdet_q, lambda diff: [t * x for t, x in zip(target_inv, diff)],
        noise_var, steps, learning_rate)


#: Largest KL difference ``diagonal_sender`` may show against the numpy path,
#: relative to max(1, |KL|): np.log is not always correctly rounded where
#: math.log is, and BLAS may fuse the quadratic form's multiply-adds. Iterates
#: and errors must be equal.
KL_TOL = 1e-12


def _kl_gap(kl, kl_ref):
    """|kl - kl_ref| in units of max(1, |kl_ref|); 0 when equal (+inf too)."""
    return 0.0 if kl == kl_ref else abs(kl - kl_ref) / max(1.0, abs(kl_ref))


def assert_rows_match_oracle(mean, variances, noise_vars, steps, learning_rate):
    """``_float_descent`` at each noise level against
    ``_reference_diagonal_gd`` at that level: the same StepSizeError message,
    or equal iterates and KLs within ``KL_TOL``. Returns the oracle's
    outcomes."""
    target = GaussianMessageDist.from_diagonal(mean, variances)
    checked = diagonal_sender._diagonal_target(mean, variances)
    refs = []
    for noise in noise_vars:
        ref = _outcome(_reference_diagonal_gd, SenderProblem(target, noise), steps, learning_rate)
        got = _outcome(_float_descent, checked, float(noise), steps, learning_rate)
        if isinstance(ref, str):
            assert got == ref
        else:
            (got_mean, got_variances, kl, ran), (ref_mean, ref_variances, ref_kl) = got, ref
            assert 1 <= ran <= steps
            assert got_mean == ref_mean.tolist()
            assert got_variances == ref_variances.tolist()
            assert _kl_gap(kl, ref_kl) <= KL_TOL  # a NaN gap fails; a returned KL is never NaN
        refs.append(ref)
    return refs


def assert_one_row_matches_oracle(problem, steps, learning_rate):
    """``aware_optimum_gd``'s diagonal mode against ``_reference_diagonal_gd``:
    equal iterates, or the same StepSizeError message. The KL is
    ``objective_grad_diag``'s at the returned iterate, bit for bit, and within
    ``KL_TOL`` of the oracle's numpy sums. Returns the oracle's outcome."""
    ref = _outcome(_reference_diagonal_gd, problem, steps, learning_rate)
    got = _outcome(aware_optimum_gd, problem, steps, learning_rate)
    if isinstance(ref, str):
        assert got == ref
        return ref
    ref_mean, ref_variances, ref_kl = ref
    assert np.array_equal(got.dist.mean, ref_mean)
    assert np.array_equal(got.dist.cov, GaussianMessageDist.from_diagonal(ref_mean,
                                                                          ref_variances).cov)
    assert got.kl == objective_grad_diag(problem, ref_mean, ref_variances)[0]
    assert _kl_gap(got.kl, ref_kl) <= KL_TOL
    return ref


class TestKlGaussian:
    def test_identical_is_zero(self):
        d = GaussianMessageDist(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
        assert kl_gaussian(d, d) == pytest.approx(0.0, abs=1e-12)

    def test_unit_variance_mean_shift(self):
        p = GaussianMessageDist(np.array([1.0]), np.array([[1.0]]))
        q = GaussianMessageDist(np.array([0.0]), np.array([[1.0]]))
        assert kl_gaussian(p, q) == pytest.approx(0.5, abs=1e-14)

    def test_inflated_covariance_value(self):
        p = GaussianMessageDist(np.zeros(2), 1.5 * np.eye(2))
        q = GaussianMessageDist(np.zeros(2), np.eye(2))
        expected = 0.5 * (math.log(1 / 1.5**2) + 3.0 - 2.0)
        assert kl_gaussian(p, q) == pytest.approx(expected, abs=1e-14)
        assert kl_gaussian(p, q) == pytest.approx(0.094535, abs=5e-6)

    def test_matches_monte_carlo_oracle(self):
        p = GaussianMessageDist(np.zeros(2), 1.5 * np.eye(2))
        q = GaussianMessageDist(np.zeros(2), np.eye(2))
        est, bound = mc_kl_estimate(p, q, 10**6, 0)
        assert abs(kl_gaussian(p, q) - est) <= bound

    def test_nonnegative_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            p = random_spd_target(rng, d)
            q = random_spd_target(rng, d)
            kl = kl_gaussian(p, q)
            assert kl >= 0.0
            assert kl > 1e-10  # random pairs essentially never coincide
            assert kl_gaussian(p, p) <= 1e-10

    def test_terms_add_in_the_formula_order(self):
        # kl_gaussian is the docstring's formula on its numpy terms, summed left
        # to right, so its value is that sum's, bit for bit.
        rng = np.random.default_rng(12)
        for d in range(1, 7):
            p, q = random_spd_target(rng, d), random_spd_target(rng, d)
            target_inv = np.linalg.inv(q.cov)
            diff = p.mean - q.mean
            logdet_p = 2.0 * float(np.log(np.diag(np.linalg.cholesky(p.cov))).sum())
            want = 0.5 * (float(np.linalg.slogdet(q.cov)[1]) - logdet_p
                          + float(np.sum(target_inv * p.cov)) + float(diff @ target_inv @ diff)
                          - d)
            assert kl_gaussian(p, q) == want

    def test_quadratic_form_past_the_float_range_is_inf(self):
        # A mean offset around 1e152-1e156 overflows diff @ target_inv @ diff,
        # on some dense targets with terms of both signs, where the bare formula
        # reads -inf or NaN. A positive-definite form is >= 0, so the KL is +inf;
        # every KL the bare formula gives finite and >= 0 is kept bit for bit.
        rng = np.random.default_rng(33)
        negative_or_nan = 0
        for _ in range(1000):
            d = int(rng.integers(2, 5))
            q = GaussianMessageDist(rng.normal(size=d),
                                    _symmetric_part(_rotated(rng, 10.0 ** rng.uniform(-1, 1, d))))
            p = GaussianMessageDist(rng.choice([-1.0, 1.0], d) * 10.0 ** rng.uniform(152, 156, d),
                                    q.cov)
            target_inv = np.linalg.inv(q.cov)
            diff = p.mean - q.mean
            logdet_p = 2.0 * float(np.log(np.diag(np.linalg.cholesky(p.cov))).sum())
            with np.errstate(over="ignore", invalid="ignore"):
                bare = 0.5 * (float(np.linalg.slogdet(q.cov)[1]) - logdet_p
                              + float(np.sum(target_inv * p.cov))
                              + float(diff @ target_inv @ diff) - d)
            if math.isfinite(bare) and bare >= 0.0:
                assert kl_gaussian(p, q) == bare
            else:
                negative_or_nan += not bare >= 0.0
                assert kl_gaussian(p, q) == math.inf
        assert negative_or_nan > 0  # the sample holds the case the guard is for

    def test_singular_q_rejected(self):
        p = GaussianMessageDist(np.zeros(2), np.eye(2))
        q = GaussianMessageDist(np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(SingularTargetError):
            kl_gaussian(p, q)

    def test_dimensions_must_match(self):
        p = GaussianMessageDist(np.zeros(2), np.eye(2))
        q = GaussianMessageDist(np.zeros(3), np.eye(3))
        with pytest.raises(InvalidParameterError, match="share one dimension"):
            kl_gaussian(p, q)

    def test_singular_p_is_infinite(self):
        p = GaussianMessageDist(np.zeros(2), np.diag([1.0, 0.0]))
        q = GaussianMessageDist(np.zeros(2), np.eye(2))
        assert kl_gaussian(p, q) == math.inf


def _stored_cov(build, mean, cov):
    """The covariance ``build`` stores, or None when it rejects the input."""
    try:
        return build(mean, cov).cov
    except InvalidParameterError:
        return None


def _near_eig_floor(cov):
    """Whether the smallest eigenvalue is within rounding of the floor,
    -1e-12 times the largest eigenvalue (at least 1).

    ``eigvalsh`` and ``eigh`` of one matrix can return smallest eigenvalues a
    few ulps apart (up to 2e-15 at norm 3 over 3000 random matrices), so the
    reference constructor and the new one may rule differently when the
    smallest eigenvalue is that close to the floor. The margin is 64 ulps of
    the largest eigenvalue.
    """
    eigvals = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    margin = 64 * np.finfo(float).eps * max(1.0, np.abs(eigvals).max())
    return abs(eigvals.min() + 1e-12 * max(1.0, eigvals.max())) <= margin


def _rotated(rng, eigvals):
    q, _ = np.linalg.qr(rng.normal(size=(eigvals.size, eigvals.size)))
    return (q * eigvals) @ q.T


class TestReferenceOracles:
    """The constructor and ``kl_gaussian`` against the code they replaced."""

    def assert_same_constructor(self, mean, cov):
        """Same verdict and an equal stored covariance; True on a near-floor split."""
        ref = _stored_cov(_reference_gaussian_dist, mean, cov)
        new = _stored_cov(GaussianMessageDist, mean, cov)
        if (ref is None) != (new is None):
            assert _near_eig_floor(cov)
            return True
        assert new is None or np.array_equal(new, ref)
        return False

    def test_psd_covariances(self):
        rng = np.random.default_rng(40)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            eigvals = rng.uniform(0.0, 3.0, d)
            eigvals[rng.random(d) < 0.2] = 0.0
            for cov in (_rotated(rng, eigvals), np.diag(eigvals)):
                assert not self.assert_same_constructor(rng.normal(size=d), cov)

    def test_near_psd_covariances(self):
        # Smallest eigenvalue on, just inside and just outside the floor.
        rng = np.random.default_rng(41)
        verdicts = set()
        for _ in range(300):
            d = int(rng.integers(1, 9))
            eigvals = rng.uniform(0.1, 3.0, d)
            floor = -1e-12 * max(1.0, eigvals[1:].max(initial=0.0))
            eigvals[0] = floor * rng.choice([1.0, 1.0 + 1e-3, 1.0 - 1e-3, 0.5, 2.0, 0.0])
            for cov in (_rotated(rng, eigvals), np.diag(eigvals)):
                if not self.assert_same_constructor(np.zeros(d), cov):
                    verdicts.add(_stored_cov(GaussianMessageDist, np.zeros(d), cov) is None)
        assert verdicts == {True, False}

    def test_asymmetric_covariances(self):
        # An off-diagonal pair apart by just under, at, or just over 1e-12.
        rng = np.random.default_rng(42)
        verdicts = set()
        for _ in range(300):
            d = int(rng.integers(2, 9))
            cov = _rotated(rng, rng.uniform(0.1, 3.0, d))
            i, j = rng.permutation(d)[:2]
            cov[i, j] = cov[j, i] + rng.choice([-1.0, 1.0]) * 1e-12 * rng.choice(
                [0.5, 1.0 - 1e-3, 1.0, 1.0 + 1e-3, 2.0, 1e6])
            assert not self.assert_same_constructor(np.zeros(d), cov)
            verdicts.add(_stored_cov(GaussianMessageDist, np.zeros(d), cov) is None)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_inputs(self, bad):
        rng = np.random.default_rng(43)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            mean, cov = rng.normal(size=d), _rotated(rng, rng.uniform(0.1, 3.0, d))
            if rng.random() < 0.5:
                mean[rng.integers(d)] = bad
            else:
                cov[rng.integers(d), rng.integers(d)] = bad
            assert _stored_cov(_reference_gaussian_dist, mean, cov) is None
            assert _stored_cov(GaussianMessageDist, mean, cov) is None

    def test_kl_matches_reference(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            d = int(rng.integers(1, 9))
            p, q = (GaussianMessageDist(rng.normal(size=d),
                                        _rotated(rng, rng.uniform(0.05, 5.0, d)))
                    for _ in range(2))
            for p_, q_ in ((p, q), (GaussianMessageDist.from_diagonal(p.mean, np.diag(p.cov)), q)):
                ref = _reference_kl_gaussian(p_, q_)
                assert abs(kl_gaussian(p_, q_) - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_singular_covariances(self):
        # A diagonal covariance is stored exactly, so its zero variances stay
        # exact zeros. A rotated rank-deficient matrix is stored with smallest
        # eigenvalues of order 1e-16 and either sign; on those, slogdet, eigvalsh
        # and Cholesky each call the matrix singular or not by rounding in the
        # reference, so they are not compared (see the next test).
        rng = np.random.default_rng(45)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            variances = rng.uniform(0.3, 3.0, d)
            variances[rng.permutation(d)[:rng.integers(1, d + 1)]] = 0.0
            singular = GaussianMessageDist.from_diagonal(rng.normal(size=d), variances)
            regular = GaussianMessageDist(rng.normal(size=d),
                                          _rotated(rng, rng.uniform(0.3, 3.0, d)))
            assert _reference_kl_gaussian(singular, regular) == math.inf
            assert kl_gaussian(singular, regular) == math.inf
            for kl in (_reference_kl_gaussian, kl_gaussian):
                with pytest.raises(SingularTargetError):
                    kl(regular, singular)


    def test_rotated_rank_deficient_covariances(self):
        # The rank test on the stored spectrum decides every one of these. When
        # Cholesky and slogdet decided by rounding, 728 of these 2000 p gave a
        # finite KL and 410 of these q were accepted.
        rng = np.random.default_rng(46)
        for _ in range(2000):
            d = int(rng.integers(2, 7))
            eigvals = rng.uniform(0.1, 3.0, d)
            eigvals[rng.permutation(d)[:rng.integers(1, d)]] = 0.0
            singular = GaussianMessageDist(rng.normal(size=d), _rotated(rng, eigvals))
            regular = GaussianMessageDist(rng.normal(size=d),
                                          _rotated(rng, rng.uniform(0.1, 3.0, d)))
            assert kl_gaussian(singular, regular) == math.inf
            with pytest.raises(SingularTargetError):
                kl_gaussian(regular, singular)


class TestOptima:
    def test_oblivious_zero_noise(self):
        rng = np.random.default_rng(2)
        problem = SenderProblem(random_spd_target(rng, 3), 0.0)
        assert oblivious_optimum(problem).kl == pytest.approx(0.0, abs=1e-12)

    def test_oblivious_known_value(self):
        problem = SenderProblem(GaussianMessageDist(np.zeros(2), np.eye(2)), 0.5)
        assert oblivious_optimum(problem).kl == pytest.approx(0.09453489189183561, rel=1e-10)

    def test_oblivious_diverges_with_noise(self):
        target = GaussianMessageDist(np.zeros(2), np.eye(2))
        kls = [oblivious_optimum(SenderProblem(target, nv)).kl for nv in (0.5, 5.0, 50.0)]
        assert kls[0] < kls[1] < kls[2]

    def test_aware_cancels_noise_when_possible(self):
        problem = SenderProblem(GaussianMessageDist(np.zeros(2), np.eye(2)), 0.5)
        sol = aware_optimum(problem)
        assert np.allclose(sol.dist.cov, 0.5 * np.eye(2), atol=1e-12)
        assert sol.kl == pytest.approx(0.0, abs=1e-12)

    def test_aware_over_noised_scalar(self):
        problem = SenderProblem(GaussianMessageDist(np.zeros(1), np.eye(1)), 2.0)
        sol = aware_optimum(problem)
        assert np.allclose(sol.dist.cov, 0.0)
        assert sol.kl == pytest.approx(0.5 * (math.log(0.5) + 2.0 - 1.0), abs=1e-12)
        assert sol.kl == pytest.approx(0.15343, abs=5e-6)

    def test_aware_zero_noise_reproduces_target(self):
        rng = np.random.default_rng(3)
        target = random_spd_target(rng, 4)
        sol = aware_optimum(SenderProblem(target, 0.0))
        assert np.allclose(sol.dist.cov, target.cov, atol=1e-12)
        assert sol.kl == pytest.approx(0.0, abs=1e-10)

    def test_aware_beats_exhaustive_scalar_search(self):
        # 1-d independent oracle: brute-force scan over sender variances.
        lam, noise = 0.8, 0.5
        target = GaussianMessageDist(np.zeros(1), np.array([[lam]]))
        problem = SenderProblem(target, noise)
        best = min(
            kl_gaussian(GaussianMessageDist(np.zeros(1), np.array([[v]]) + noise), target)
            for v in np.linspace(0.0, 3.0, 30001)
        )
        assert aware_optimum(problem).kl <= best + 1e-9

    def test_dominance_random_targets(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            d = int(rng.integers(1, 9))
            target = random_spd_target(rng, d)
            for noise in (0.1, 0.5, 1.0):
                problem = SenderProblem(target, noise)
                aware = aware_optimum(problem).kl
                oblivious = oblivious_optimum(problem).kl
                assert aware <= oblivious
                assert aware < oblivious  # strict whenever noise > 0

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), noise=st.floats(1e-3, 2.0))
    def test_dominance_property(self, d, seed, noise):
        # At noise 1e-3 the oblivious KL is at least (1e-3 / 3)^2 / 4 = 2.8e-8
        # on these targets (eigenvalues at most 3), far above rounding.
        problem = SenderProblem(random_spd_target(np.random.default_rng(seed), d), noise)
        assert aware_optimum(problem).kl < oblivious_optimum(problem).kl

    def test_aware_projection_stable(self):
        # Re-deriving the optimum from the already-shrunk spectrum changes nothing.
        rng = np.random.default_rng(6)
        target = random_spd_target(rng, 4)
        noise = 1.0
        sol = aware_optimum(SenderProblem(target, noise))
        again = aware_optimum(SenderProblem(
            GaussianMessageDist(target.mean, sol.dist.cov + noise * np.eye(4)), noise))
        assert np.allclose(again.dist.cov, sol.dist.cov, atol=1e-10)


class TestClosedFormOracle:
    """``oblivious_optimum`` and ``aware_optimum`` score their message with
    ``diagonal_sender._closed_form_kls``, as the CLI does, so the float and numpy
    tables share their closed forms; here an oracle shares no code with them."""

    def test_seeded_targets_against_the_reference_kl(self):
        # d 1-8, random SPD and diagonal targets, noise 0 and U(0, 2): each KL
        # against ``_reference_kl_gaussian`` of the post-noise message.
        rng = np.random.default_rng(30)
        gaps = []
        for d in range(1, 9):
            for _ in range(20):
                targets = (random_spd_target(rng, d), GaussianMessageDist.from_diagonal(
                    rng.normal(size=d), rng.uniform(0.3, 3.0, d)))
                for target, noise in itertools.product(targets, (0.0, rng.uniform(0.0, 2.0))):
                    problem = SenderProblem(target, noise)
                    for solution in (oblivious_optimum(problem), aware_optimum(problem)):
                        sent = _RefDist(solution.dist.mean, solution.dist.cov + noise * np.eye(d))
                        gaps.append(_kl_gap(solution.kl, _reference_kl_gaussian(sent, target)))
        assert len(gaps) == 1280 and max(gaps) <= 1e-13

    @settings(max_examples=100, deadline=None)
    @given(
        variances=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=16),
        noise=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    )
    def test_diagonal_targets_are_the_float_closed_forms(self, variances, noise):
        problem = SenderProblem(
            GaussianMessageDist.from_diagonal([0.0] * len(variances), variances), noise)
        assert diagonal_sender._closed_form_kls(variances, noise) == (
            oblivious_optimum(problem).kl, aware_optimum(problem).kl)


class TestGradientDescent:
    def test_matches_closed_form_on_diagonal_problem(self):
        rng = np.random.default_rng(7)
        variances = rng.uniform(0.5, 2.0, size=4)
        target = GaussianMessageDist.from_diagonal(rng.normal(size=4), variances)
        problem = SenderProblem(target, 0.3)
        sol = aware_optimum_gd(problem, steps=6000, learning_rate=0.1)
        assert sol.kl - aware_optimum(problem).kl <= 1e-6

    def test_projection_active_case(self):
        # noise exceeds the smallest target variance: the optimum pins that
        # coordinate's variance at zero, reachable only through projection.
        target = GaussianMessageDist.from_diagonal([0.0, 0.0], [0.4, 2.0])
        problem = SenderProblem(target, 1.0)
        sol = aware_optimum_gd(problem, steps=6000, learning_rate=0.1)
        assert sol.kl - aware_optimum(problem).kl <= 1e-6
        assert sol.dist.cov[0, 0] == 0.0

    def test_zero_learning_rate_keeps_parameters(self):
        target = GaussianMessageDist.from_diagonal([1.0, -1.0], [1.5, 0.7])
        problem = SenderProblem(target, 0.2)
        sol = aware_optimum_gd(problem, steps=50, learning_rate=0.0)
        assert np.allclose(sol.dist.mean, np.zeros(2))
        assert np.allclose(sol.dist.cov, np.eye(2))

    def test_zero_noise_converges_to_target(self):
        target = GaussianMessageDist.from_diagonal([0.5, -0.25], [1.2, 0.8])
        problem = SenderProblem(target, 0.0)
        sol = aware_optimum_gd(problem, steps=8000, learning_rate=0.1)
        assert sol.kl <= 1e-8

    def test_full_mode_reaches_closed_form(self):
        rng = np.random.default_rng(8)
        target = random_spd_target(rng, 3)
        problem = SenderProblem(target, 0.4)
        sol = aware_optimum_gd(problem, steps=12000, learning_rate=0.05, mode="full")
        assert sol.kl - aware_optimum(problem).kl <= 1e-4

    def test_zero_variance_at_zero_noise_warns_nothing(self):
        # 1 / sent divides by zero here; the suite makes any warning an error.
        problem = SenderProblem(GaussianMessageDist.from_diagonal([0.0], [1.0]), 0.0)
        value, grad_mean, grad_variances = objective_grad_diag(problem, [0.0], [0.0])
        assert value == math.inf
        assert grad_mean.tolist() == [0.0] and grad_variances.tolist() == [-math.inf]

    def test_divergence_detection(self):
        # nonzero target mean: the mean iterate explodes geometrically
        target = GaussianMessageDist.from_diagonal([1.0], [0.5])
        problem = SenderProblem(target, 0.1)
        with pytest.raises(StepSizeError):
            aware_optimum_gd(problem, steps=500, learning_rate=50.0)

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        target = GaussianMessageDist.from_diagonal(rng.normal(size=3), rng.uniform(0.5, 2.0, 3))
        problem = SenderProblem(target, 0.3)
        h = 1e-6
        for _ in range(20):
            mean = rng.normal(size=3)
            variances = rng.uniform(0.2, 2.0, size=3)
            value, grad_mean, grad_var = objective_grad_diag(problem, mean, variances)
            for k in range(3):
                for vec, grad in ((mean, grad_mean), (variances, grad_var)):
                    bumped_hi, bumped_lo = vec.copy(), vec.copy()
                    bumped_hi[k] += h
                    bumped_lo[k] -= h
                    if vec is mean:
                        hi = objective_grad_diag(problem, bumped_hi, variances)[0]
                        lo = objective_grad_diag(problem, bumped_lo, variances)[0]
                    else:
                        hi = objective_grad_diag(problem, mean, bumped_hi)[0]
                        lo = objective_grad_diag(problem, mean, bumped_lo)[0]
                    fd = (hi - lo) / (2 * h)
                    assert fd == pytest.approx(grad[k], rel=1e-4, abs=1e-9)

    def test_objective_adds_its_terms_in_the_formula_order(self):
        # The diagonal KL kernel is kl_gaussian's formula on Python floats, each
        # sum one math.fsum, added left to right, so its value is that sum's,
        # bit for bit.
        rng = np.random.default_rng(13)
        for d in range(1, 7):
            problem = SenderProblem(random_spd_target(rng, d), float(rng.uniform(0.0, 1.2)))
            mean, variances = rng.normal(size=d), rng.uniform(0.2, 2.0, d)
            target_inv = np.linalg.inv(problem.target.cov)
            diff = mean - problem.target.mean
            sent = (variances + problem.noise_var).tolist()
            quad = math.fsum(x * g for x, g in zip(diff.tolist(), (target_inv @ diff).tolist()))
            trace = math.fsum(s * t for s, t in zip(sent, np.diag(target_inv).tolist()))
            want = 0.5 * (float(np.linalg.slogdet(problem.target.cov)[1])
                          - math.fsum(map(math.log, sent)) + trace + quad - d)
            assert objective_grad_diag(problem, mean, variances)[0] == want

    def test_descent_steps_along_the_checked_gradient(self):
        # The finite differences above check the gradient the solver runs: k
        # steps of aware_optimum_gd are k steps along objective_grad_diag's
        # gradient, bit for bit, on diagonal and dense targets.
        rng = np.random.default_rng(11)
        for d in range(1, 9):
            for target in (GaussianMessageDist.from_diagonal(rng.normal(size=d),
                                                             rng.uniform(0.3, 3.0, d)),
                           random_spd_target(rng, d)):
                problem = SenderProblem(target, float(rng.uniform(0.0, 1.2)))
                mean, variances = np.zeros(d), np.ones(d)
                for k in range(1, 6):
                    _, grad_mean, grad_var = objective_grad_diag(problem, mean, variances)
                    mean = mean - 0.1 * grad_mean
                    variances = np.maximum(variances - 0.1 * grad_var, 0.0)
                    got = aware_optimum_gd(problem, steps=k, learning_rate=0.1)
                    assert np.array_equal(got.dist.mean, mean)
                    assert np.array_equal(np.diag(got.dist.cov), variances)


class TestFastPathMatchesReference:
    """``aware_optimum_gd`` against ``_reference_aware_optimum_gd``."""

    @pytest.mark.parametrize("mode", ["diagonal", "full"])
    @pytest.mark.parametrize("noise", [0.0, 0.3, 1.5])
    def test_seeded_problems(self, noise, mode):
        # Diagonal and non-diagonal targets in both modes; a non-diagonal
        # target in diagonal mode leaves a KL the diagonal sender cannot close.
        rng = np.random.default_rng(20)
        for _ in range(3):
            d = int(rng.integers(1, 6))
            diagonal = GaussianMessageDist.from_diagonal(rng.normal(size=d),
                                                         rng.uniform(0.3, 3.0, d))
            for target in (diagonal, random_spd_target(rng, d)):
                assert_matches_reference(SenderProblem(target, noise), steps=100, mode=mode)

    def test_zero_noise_variance_projected_to_zero(self):
        # The first step projects the small-variance coordinate onto 0; with no
        # noise the post-noise message is degenerate and the KL is +inf.
        target = GaussianMessageDist.from_diagonal([0.5, -1.0], [0.01, 1.0])
        ref = assert_matches_reference(SenderProblem(target, 0.0), steps=1)
        assert ref.kl == math.inf
        assert ref.dist.cov[0, 0] == 0.0

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_zero_noise_variance_stuck_at_zero_diverges(self):
        # After the projection above, 1/0 sends the variance to +inf and every
        # later KL is NaN: a diverged run, reported as such.
        target = GaussianMessageDist.from_diagonal([0.5, -1.0], [0.01, 1.0])
        with pytest.raises(StepSizeError):
            aware_optimum_gd(SenderProblem(target, 0.0), steps=50)

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_zero_noise_variance_stuck_at_zero_short_run(self):
        # Three steps end before 10 bad steps: the run still reports divergence
        # instead of returning a NaN KL and an infinite covariance.
        target = GaussianMessageDist.from_diagonal([0.5, -1.0], [0.01, 1.0])
        with pytest.raises(StepSizeError):
            aware_optimum_gd(SenderProblem(target, 0.0), steps=3)

    @pytest.mark.parametrize("mode", ["diagonal", "full"])
    def test_same_step_size_error(self, mode):
        # Every run length up to and past the 10th consecutive bad step.
        problem = SenderProblem(GaussianMessageDist.from_diagonal([1.0], [0.5]), 0.1)
        raised = [assert_matches_reference(problem, steps=steps, learning_rate=50.0,
                                           mode=mode) is None for steps in range(1, 16)]
        assert not raised[0] and raised[-1]

    def test_large_step_that_stalls(self):
        # Too large a step that still never increases the objective 10 times
        # in a row: both paths return the same far-from-optimal iterate.
        target = GaussianMessageDist.from_diagonal([0.0, 0.0], [1.0, 1.0])
        ref = assert_matches_reference(SenderProblem(target, 0.5), steps=200,
                                       learning_rate=100.0)
        assert ref.kl > 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        noise=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
        learning_rate=st.floats(0.001, 0.3),
        steps=st.integers(1, 60),
    )
    def test_random_diagonal_problems(self, d, seed, noise, learning_rate, steps):
        # With no noise, a step projects a variance v onto 0 only if
        # v + lr/(2v) <= lr/(2 * target variance). For lr <= 0.3 and target
        # variances >= 0.2 the left side is at least 0.77 and the right at most
        # 0.75, so the reference never meets the degenerate case it cannot run.
        rng = np.random.default_rng(seed)
        target = GaussianMessageDist.from_diagonal(rng.uniform(-2.0, 2.0, d),
                                                   rng.uniform(0.2, 3.0, d))
        assert_matches_reference(SenderProblem(target, noise), steps=steps,
                                 learning_rate=learning_rate)


class TestBatchedDescent:
    """``_float_descent`` at each noise level of a table against
    ``_reference_diagonal_gd``, and ``aware_optimum_gd``'s one-row diagonal
    mode against the same oracle on non-diagonal targets."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_seeded_rows(self):
        # d 1-16, diagonal and non-diagonal targets, noise 0-1.5 and learning
        # rates up to 50, at which some rows diverge.
        rng = np.random.default_rng(50)
        outcomes = []
        for d in range(1, 17):
            mean, variances = rng.normal(size=d).tolist(), rng.uniform(0.3, 3.0, d).tolist()
            non_diagonal = random_spd_target(rng, d)
            for diagonal in (True, False):
                noise_vars = [0.0, *rng.uniform(0.0, 1.5, 4)]
                for learning_rate in (0.05, 0.3, float(rng.choice([2.0, 50.0]))):
                    if diagonal:
                        outcomes += assert_rows_match_oracle(mean, variances, noise_vars, 100,
                                                             learning_rate)
                    else:
                        outcomes += [assert_one_row_matches_oracle(
                            SenderProblem(non_diagonal, noise), 100, learning_rate)
                            for noise in noise_vars]
        failed = sum(isinstance(outcome, str) for outcome in outcomes)
        assert 0 < failed < len(outcomes)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_lowest_failing_row_raises(self):
        # Alone, row 1 (no noise) overflows at step 27 and row 2 has 10 rising
        # steps by step 12; row 0 runs all 200 steps. The table stops at row
        # 1's error, as cmd_sender does.
        refs = assert_rows_match_oracle([0.1], [0.249], [0.1, 0.0, 0.5], 200, 0.5)
        assert refs[1] == "a step overflowed the iterate; reduce the learning rate"
        assert refs[2] == "objective increased for 10 consecutive steps; reduce the learning rate"
        assert not isinstance(refs[0], str)
        assert _float_table([0.1], [0.249], [0.1, 0.0, 0.5], 200, 0.5)[1] == refs[1]
        # A failing row after converging rows still fails the table.
        assert _float_table([0.1], [0.249], [0.1, 0.5], 200, 0.5)[1] == refs[2]

    def test_shipped_sender_rows(self):
        refs = assert_rows_match_oracle([0.0, 0.0], [1.0, 1.0], [0.0, 0.1, 0.5, 1.0], 6000, 0.1)
        assert not any(isinstance(ref, str) for ref in refs)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        noise_vars=st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.5)), min_size=1,
                            max_size=6),
        learning_rate=st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 50.0)),
        steps=st.integers(1, 80),
    )
    def test_random_batches(self, d, seed, noise_vars, learning_rate, steps):
        rng = np.random.default_rng(seed)
        assert_rows_match_oracle(rng.uniform(-2.0, 2.0, d).tolist(),
                                 rng.uniform(0.05, 3.0, d).tolist(), noise_vars, steps,
                                 learning_rate)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mean, cov", [
        ([1e155, -2e154], [[5.263157894736843, -4.736842105263158],
                           [-4.736842105263158, 5.263157894736843]]),
        ([-3.780196753222769e155, -1.763522589096585e156],
         [[3.1453275389842217, 1.5520109791796441], [1.5520109791796441, 1.0609006267098535]]),
    ], ids=["numpy-inf", "numpy-minus-inf"])
    def test_quadratic_form_past_the_float_range_is_inf(self, mean, cov):
        # Products of the mean offset and the precision product overflow to +inf
        # in one coordinate and -inf in the other. A positive-definite
        # precision's quadratic form is >= 0, so the KL is +inf; numpy's sum of
        # the same form reads +inf on the first target, and -inf on the second
        # for the first steps.
        problem = SenderProblem(GaussianMessageDist(mean, cov), 0.5)
        for steps in (1, 3, 50):
            ref_mean, ref_variances, _ = _reference_diagonal_gd(problem, steps, 0.1)
            got = aware_optimum_gd(problem, steps, 0.1)
            assert np.array_equal(got.dist.mean, ref_mean)
            assert np.array_equal(np.diag(got.dist.cov), ref_variances)
            assert got.kl == math.inf

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
        noise=st.one_of(st.just(0.0), st.floats(0.0, 1.5)),
        learning_rate=st.one_of(st.floats(0.01, 1.0), st.floats(1.0, 50.0)),
        steps=st.integers(1, 80),
    )
    def test_random_dense_targets(self, d, seed, noise, learning_rate, steps):
        # On a dense target the float loop's mean step reads the whole
        # precision, through the product aware_optimum_gd hands it.
        problem = SenderProblem(random_spd_target(np.random.default_rng(seed), d), noise)
        outcome = assert_one_row_matches_oracle(problem, steps, learning_rate)
        event("failed" if isinstance(outcome, str) else "returned")


def _full_length_descent(target, noise_var, steps, learning_rate):
    """``_float_descent`` with its exit at the fixed point switched off: every
    run takes all ``steps`` steps (or fails)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagonal_sender, "_settled", lambda *iterates: False)
        return _outcome(_float_descent, target, noise_var, steps, learning_rate)


def _hex(values):
    return [float(value).hex() for value in values]


def _numpy_descent(problem, steps, learning_rate):
    """``aware_optimum_gd``'s diagonal mode, or the message of its
    StepSizeError, and the number of post-noise KLs it evaluated: one for the
    start and one per step run."""
    with mock.patch.object(diagonal_sender, "_diagonal_kl",
                           wraps=diagonal_sender._diagonal_kl) as kl:
        return _outcome(aware_optimum_gd, problem, steps, learning_rate), kl.call_count


def assert_numpy_descent_stops_alike(mean, variances, noise, steps, learning_rate):
    """``aware_optimum_gd`` on a diagonal target takes the iterates of
    ``_float_descent``, so it stops after the same step, with the same mean
    and variances, or raises the same error. Returns the float descent's
    outcome."""
    got = _outcome(_float_descent, diagonal_sender._diagonal_target(mean, variances), noise,
                   steps, learning_rate)
    problem = SenderProblem(GaussianMessageDist.from_diagonal(mean, variances), noise)
    solution, kls = _numpy_descent(problem, steps, learning_rate)
    if isinstance(got, str):
        assert solution == got
        return got
    assert kls == got[3] + 1
    assert solution.dist.mean.tolist() == got[0]
    assert np.diag(solution.dist.cov).tolist() == got[1]
    return got


class TestFixedPointExit:
    """The descent stops at the first step that changes neither the mean nor
    the variances, and ends as the full-length run does: the same iterates
    bit for bit, the same KL, the same error. ``aware_optimum_gd``'s diagonal
    mode stops by the same rule."""

    def test_shipped_table_stops_at_step_736(self):
        # The mean never moves; the rows at noise 0, 0.1, 0.5 and 1.0 stop
        # changing at steps 1, 627, 667 and 736.
        target = diagonal_sender._diagonal_target([0.0, 0.0], [1.0, 1.0])
        noise_vars = [0.0, 0.1, 0.5, 1.0]
        rows = [_float_descent(target, noise, 6000, 0.1)
                for noise in noise_vars]
        assert [row[3] for row in rows] == [1, 627, 667, 736]
        for row, noise in zip(rows, noise_vars):
            full = _full_length_descent(target, noise, 6000, 0.1)
            assert full[3] == 6000
            assert row[:3] == full[:3]

    def test_steps_stay_the_bound(self):
        target = diagonal_sender._diagonal_target([0.0, 0.0], [1.0, 1.0])
        assert _float_descent(target, 1.0, 735, 0.1)[3] == 735

    def test_mean_settles_after_the_variances(self):
        # With no noise and the target's variances, the variances never move,
        # and from about step 175 the KL reads 0: 0.5 * ((1 + quad) - 1) drops
        # a quad below 1e-16. The mean still moves until step 334.
        target = diagonal_sender._diagonal_target([1.0], [1.0])
        got = _float_descent(target, 0.0, 6000, 0.1)
        assert got[2] == 0.0 and got[3] == 334
        assert got[:3] == _full_length_descent(target, 0.0, 6000, 0.1)[:3]

    def test_numpy_descent_stops_at_the_same_step(self):
        # The shipped table, whose mean never moves, and a target whose
        # variances never move: each half of the stop rule decides one.
        ran = [assert_numpy_descent_stops_alike([0.0, 0.0], [1.0, 1.0], noise, 6000, 0.1)[3]
               for noise in (0.0, 0.1, 0.5, 1.0)]
        assert ran == [1, 627, 667, 736]
        assert assert_numpy_descent_stops_alike([1.0], [1.0], 0.0, 6000, 0.1)[3] == 334
        # steps stays the bound.
        assert assert_numpy_descent_stops_alike([0.0, 0.0], [1.0, 1.0], 1.0, 735, 0.1)[3] == 735

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 4),
        data=st.data(),
        learning_rate=st.floats(0.05, 1.0),
        steps=st.one_of(st.just(3000), st.integers(1, 3000)),
    )
    def test_numpy_descent_stops_alike(self, d, data, learning_rate, steps):
        mean = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=d,
                                  max_size=d))
        variances = data.draw(st.lists(st.floats(0.2, 3.0), min_size=d, max_size=d))
        noise = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 1.5),
                                    st.sampled_from(variances)))
        got = assert_numpy_descent_stops_alike(mean, variances, noise, steps, learning_rate)
        event("failed" if isinstance(got, str) else
              "settled" if got[3] < steps else "ran every step")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=25, deadline=None)
    @given(
        d=st.integers(1, 4),
        data=st.data(),
        learning_rate=st.floats(0.05, 1.0),
        steps=st.one_of(st.just(3000), st.integers(1, 3000)),
    )
    def test_settled_rows_are_the_full_runs(self, d, data, learning_rate, steps):
        mean = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), min_size=d,
                                  max_size=d))
        variances = data.draw(st.lists(st.floats(0.2, 3.0), min_size=d, max_size=d))
        # Noise at or above a target variance clips that variance to 0.
        clipping = st.builds(lambda v, f: v * f, st.sampled_from(variances), st.floats(1.0, 1.5))
        noise_vars = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5), clipping),
                                        min_size=1, max_size=4))
        target = diagonal_sender._diagonal_target(mean, variances)
        dist = GaussianMessageDist.from_diagonal(mean, variances)
        for noise in noise_vars:
            got = _outcome(_float_descent, target, noise, steps, learning_rate)
            full = _full_length_descent(target, noise, steps, learning_rate)
            ref = _outcome(_reference_diagonal_gd, SenderProblem(dist, noise), steps,
                           learning_rate)
            if isinstance(ref, str):
                event("failed")
                assert got == full == ref
                continue
            (got_mean, got_variances, kl, ran), (ref_mean, ref_variances, _) = got, ref
            event("settled" if ran < steps else "ran every step")
            assert 1 <= ran <= steps and full[3] == steps
            assert _hex(got_mean) == _hex(ref_mean)
            assert _hex(got_variances) == _hex(ref_variances)
            # numpy's KL may differ in the last bits; the full float run's may not.
            assert kl == full[2]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_settle_before_a_row_fails(self):
        # Alone, the rows at noise 0.5 and 1.0 settle at step 3, and the row at
        # noise 0 overflows at step 27 with a NaN KL (inf - inf).
        target = diagonal_sender._diagonal_target([0.0], [0.249])
        assert [_float_descent(target, noise, 200, 0.5)[3]
                for noise in (0.5, 1.0)] == [3, 3]
        (_, descent), _ = assert_float_table_matches([0.0], [0.249], [0.5, 1.0, 0.0], 200, 0.5)
        assert descent == "a step overflowed the iterate; reduce the learning rate"
        # One step short of the overflow, the row runs every step.
        assert _float_descent(target, 0.0, 26, 0.5)[3] == 26
        (_, descent), _ = assert_float_table_matches([0.0], [0.249], [0.5, 1.0, 0.0], 26, 0.5)
        assert not isinstance(descent, str)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_rows_settle_after_a_row_failed(self):
        # The row at noise 0 overflows at step 27; the rows at noise 0.5 and
        # 1.0 settle only at steps 1145 and 1161, and the table still fails.
        target = diagonal_sender._diagonal_target([0.0, 0.0], [0.249, 3.0])
        assert [_float_descent(target, noise, 3000, 0.5)[3]
                for noise in (0.5, 1.0)] == [1145, 1161]
        for noise_vars in ([0.5, 1.0, 0.0], [0.5, 0.0, 1.0]):
            (_, descent), _ = assert_float_table_matches([0.0, 0.0], [0.249, 3.0], noise_vars,
                                                         3000, 0.5)
            assert descent == "a step overflowed the iterate; reduce the learning rate"


def _every_step_full(problem, steps, learning_rate):
    """``aware_optimum_gd(mode="full")`` with its exit at the fixed point
    switched off, as the oracle: every run takes all ``steps`` steps (or fails)."""
    with mock.patch.object(gaussian_sender, "_settled", lambda *iterates: False):
        return _outcome(aware_optimum_gd, problem, steps, learning_rate, "full")


def assert_full_mode_stops_alike(problem, steps, learning_rate):
    """``aware_optimum_gd(mode="full")`` against ``_every_step_full``: the same
    StepSizeError message, or the same mean, covariance and KL, bit for bit.
    Returns the number of steps the run took, or the error message."""
    with mock.patch.object(gaussian_sender, "_sent_kl", wraps=gaussian_sender._sent_kl) as kl:
        got = _outcome(aware_optimum_gd, problem, steps, learning_rate, "full")
    full = _every_step_full(problem, steps, learning_rate)
    if isinstance(full, str):
        assert got == full
        return got
    assert np.array_equal(got.dist.mean, full.dist.mean)
    assert np.array_equal(got.dist.cov, full.dist.cov)
    assert _hex([got.kl]) == _hex([full.kl])
    return kl.call_count - 1  # one KL for the start and one per step


class TestFullModeFixedPointExit:
    """``aware_optimum_gd(mode="full")`` stops by the diagonal descents' rule,
    at the first step that leaves the mean and the factor as they were, and
    ends as the every-step run does."""

    def test_seeded_problems(self):
        # d 1-4 at noise 0, 0.1 and 0.5; the d = 4 problem at noise 0.1 is
        # still moving at step 2000, and all the others have settled.
        rng = np.random.default_rng(1)
        ran = [assert_full_mode_stops_alike(SenderProblem(random_spd_target(rng, d), noise),
                                            2000, 0.1)
               for d in range(1, 5) for noise in (0.0, 0.1, 0.5)]
        assert all(1 <= r <= 2000 for r in ran)
        assert sum(r < 2000 for r in ran) >= 10

    def test_stops_before_the_step_cap(self):
        # Counted by the post-noise KLs evaluated: one for the start, one per step.
        problem = SenderProblem(GaussianMessageDist([0.5, -1.0], [[1.5, 0.3], [0.3, 0.8]]), 0.5)
        assert assert_full_mode_stops_alike(problem, 5000, 0.1) < 1000
        with mock.patch.object(gaussian_sender, "_sent_kl", wraps=gaussian_sender._sent_kl) as kl:
            _every_step_full(problem, 5000, 0.1)
        assert kl.call_count == 5001

    @settings(max_examples=20, deadline=None)
    @given(
        d=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
        noise=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        learning_rate=st.sampled_from([0.05, 0.1]),
        steps=st.one_of(st.just(2500), st.integers(1, 2500)),
    )
    def test_random_problems(self, d, seed, noise, learning_rate, steps):
        ran = assert_full_mode_stops_alike(
            SenderProblem(random_spd_target(np.random.default_rng(seed), d), noise), steps,
            learning_rate)
        event("failed" if isinstance(ran, str) else
              "settled" if ran < steps else "ran every step")


def _numpy_table(mean, variances, noise_vars, steps, learning_rate):
    """The CLI's sender table on the numpy path: the closed-form KLs of each
    noise level and the descent's (mean, variances, KLs) from one
    ``aware_optimum_gd`` run per noise level, or the StepSizeError message of
    the lowest failing level; or the type and message of the input error
    raised on the way. Its closed forms are ``diagonal_sender``'s own, so
    ``TestClosedFormOracle`` holds them to an independent oracle."""
    try:
        target = GaussianMessageDist.from_diagonal(mean, variances)
        problems = [SenderProblem(target, noise) for noise in noise_vars]
        closed = [(oblivious_optimum(p).kl, aware_optimum(p).kl) for p in problems]
        runs = [_outcome(aware_optimum_gd, p, steps, learning_rate) for p in problems]
    except ValueError as exc:
        return type(exc), str(exc)
    failed = [run for run in runs if isinstance(run, str)]
    if failed:
        return closed, failed[0]
    means = [run.dist.mean.tolist() for run in runs]
    assert means.count(means[0]) == len(means)  # the mean step reads no noise
    return closed, (means[0], [np.diag(run.dist.cov).tolist() for run in runs],
                    [run.kl for run in runs])


def _float_table(mean, variances, noise_vars, steps, learning_rate):
    """The same table from ``diagonal_sender``, as ``cmd_sender`` builds it:
    every noise level checked, then one descent per level, in order, up to the
    first StepSizeError."""
    try:
        target = diagonal_sender._diagonal_target(mean, variances)
        noise = [diagonal_sender._sender_problem(target.variances, n) for n in noise_vars]
        closed = [diagonal_sender._closed_form_kls(target.variances, n) for n in noise]
        rows = [_float_descent(target, n, steps, learning_rate)
                for n in noise]
    except StepSizeError as exc:
        return closed, str(exc)
    except ValueError as exc:
        return type(exc), str(exc)
    means = [row[0] for row in rows]
    assert means.count(means[0]) == len(means)  # the mean step reads no noise
    return closed, (means[0], [row[1] for row in rows], [row[2] for row in rows])


def assert_float_table_matches(mean, variances, noise_vars, steps, learning_rate, tol=KL_TOL):
    """``_float_table`` against ``_numpy_table``: the same input error, the
    same StepSizeError message, equal iterates, and KLs within ``tol``
    (0: equal). Returns the numpy table and the largest KL difference, in
    units of max(1, |KL|)."""
    args = (mean, variances, noise_vars, steps, learning_rate)
    ref, got = _numpy_table(*args), _float_table(*args)
    if isinstance(ref[0], type):
        assert got == ref
        return ref, 0.0
    assert isinstance(got[0], list)
    (closed_ref, descent_ref), (closed, descent) = ref, got
    kls = [*zip((kl for pair in closed for kl in pair), (kl for pair in closed_ref for kl in pair))]
    if isinstance(descent_ref, str):
        assert descent == descent_ref
    else:
        assert descent[:2] == descent_ref[:2]  # the mean and every row of variances
        kls += zip(descent[2], descent_ref[2])
    gaps = [_kl_gap(kl, kl_ref) for kl, kl_ref in kls]
    assert all(gap <= tol for gap in gaps)  # a NaN gap fails too
    return ref, max(gaps, default=0.0)


class TestDiagonalSender:
    """``diagonal_sender``, the CLI's numpy-free table, against the numpy path."""

    @pytest.mark.parametrize("config", [
        ([0.0, 0.0], [1.0, 1.0], [0.0, 0.1, 0.5, 1.0], 6000, 0.1),  # configs/sender.json
        ([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], 3000, 0.1),  # tests/test_cli.py's SENDER
        ([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], 500, 0.1),
        ([0.0, 0.0], [1.0, 1.0], [0.0, 0.5], 200, 100.0),
        ([0.0, 0.0], [1.0, 1.0], [0.5], 6000, 0.0),
        ([1.0], [1.0], [0.1], 6000, 50.0),
        ([0.1], [0.249], [0.1, 0.0, 0.5], 200, 0.5),
        ([0.1], [0.249], [0.1, 0.5], 200, 0.5),
    ])
    def test_cli_configs_are_equal(self, config):
        assert_float_table_matches(*config, tol=0.0)

    @pytest.mark.parametrize("config", [
        ([0.5], [0.7], [0.2, 0.35, 0.8], 300, 0.1),
        ([-1.2, -1.2], [0.3, 0.18], [0.2, 0.8], 300, 0.1),
    ])
    def test_small_tables_are_equal(self, config):
        # At d <= 2 the target's log-determinant has one or two terms, which
        # slogdet adds as math.fsum does, so the library's descent KLs are the
        # float path's too.
        assert_float_table_matches(*config, tol=0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_seeded_tables(self):
        # d 1-16: from 8 terms numpy sums pairwise, in the logs and in the
        # d * d trace of the closed forms, where math.fsum rounds once.
        rng = np.random.default_rng(60)
        failed = 0
        for d in range(1, 17):
            for learning_rate in (0.05, 0.5, float(rng.uniform(2.0, 50.0))):
                noise_vars = [0.0, *rng.uniform(0.0, 1.5, 3).tolist()]
                (_, descent), _ = assert_float_table_matches(
                    rng.normal(size=d).tolist(), rng.uniform(0.2, 3.0, d).tolist(),
                    noise_vars, 150, learning_rate)
                failed += isinstance(descent, str)
        assert 0 < failed < 48

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 4),
        data=st.data(),
        noise_vars=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), min_size=1,
                            max_size=5),
        learning_rate=st.one_of(st.floats(0.0, 1.0), st.floats(1.0, 50.0)),
        steps=st.integers(1, 200),
    )
    def test_random_tables(self, d, data, noise_vars, learning_rate, steps):
        mean = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d))
        variances = data.draw(st.lists(st.floats(0.2, 3.0), min_size=d, max_size=d))
        assert_float_table_matches(mean, variances, noise_vars, steps, learning_rate)

    @pytest.mark.parametrize("mean,variances,noise_vars,steps,learning_rate", [
        ([0.0, 0.0], [1.0, math.inf], [0.5], 10, 0.1),
        ([-math.inf, 0.0], [1.0, 1.0], [0.5], 10, 0.1),
        ([math.nan], [1.0], [0.5], 10, 0.1),
        ([0.0], [math.nan], [0.5], 10, 0.1),
        ([10**400], [1.0], [0.5], 10, 0.1),
        ([0.0], [10**400], [0.5], 10, 0.1),
        ([0.0], [1.0, 1.0], [0.5], 10, 0.1),
        ([], [], [0.5], 10, 0.1),
        ([0.0, 0.0], [1.0, -0.5], [0.5], 10, 0.1),
        ([0.0, 0.0], [1.0, -1e-14], [0.5], 10, 0.1),
        ([0.0, 0.0], [1.0, 0.0], [0.5], 10, 0.1),
        ([0.0], [-0.0], [0.5], 10, 0.1),
        ([0.0], [1e-320], [0.5], 10, 0.1),
        ([0.0, 0.0], [1e-8, 1e9], [0.5], 10, 0.1),
        ([0.0], [1.0], [0.5, -0.1], 10, 0.1),
        ([0.0], [1.0], [math.inf], 10, 0.1),
        ([0.0], [1.0], [math.nan], 10, 0.1),
        ([0.0], [1.0], ["abc"], 10, 0.1),
        ([0.0], [1.0], [10**400], 10, 0.1),
        ([0.0], [0.0], [-1.0], 10, 0.1),
        ([0.0], [0.0], [1.0, -1.0], 10, 0.1),
        ([0.0], [1.0], [0.5], 0, 0.1),
        ([0.0], [1.0], [0.5], 2.5, 0.1),
        ([0.0], [1.0], [0.5], True, 0.1),
        ([0.0], [1.0], [0.5], 10, -0.1),
        ([0.0], [1.0], [0.5], 10, math.inf),
        ([0.0], [1.0], [0.5], 10, 10**400),
        # Alone, the first row fails with a StepSizeError; the bad level wins.
        ([1.0], [1.0], [0.1, -0.1], 6000, 50.0),
        # The oblivious variance 1e308 + 1e308 overflowed, and its KL was NaN.
        ([0.0], [1e308], [1e308], 10, 0.1),
    ])
    def test_input_errors_are_the_same(self, mean, variances, noise_vars, steps, learning_rate):
        ref, _ = assert_float_table_matches(mean, variances, noise_vars, steps, learning_rate)
        assert isinstance(ref[0], type) and issubclass(ref[0], ValueError)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mean,variances,noise_vars", [
        ([1.3e154, 1.3e154], [1.0, 1.0], [0.5]),  # the descent's first quadratic form
        ([0.0, 0.0], [1e-8, 1e-8], [1e300]),  # the closed-form and the descent's traces
    ])
    def test_overflowing_sums_are_inf(self, mean, variances, noise_vars):
        # math.fsum raises OverflowError where finite terms sum past the float
        # range; numpy's sum, and so the KL, is +inf there.
        assert_float_table_matches(mean, variances, noise_vars, 50, 0.1, tol=0.0)

    def test_near_max_variances(self):
        # Above half the largest float, the symmetrization in
        # GaussianMessageDist used to overflow and store +inf with a warning.
        for variances in ([1e308], [1e308, 1.5e308]):
            (_, descent), _ = assert_float_table_matches([0.0] * len(variances), variances,
                                                         [0.0, 0.5], 50, 0.1)
            assert not isinstance(descent, str)


class TestDivergingFullMode:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_singular_post_noise_covariance_is_a_step_size_error(self):
        # At learning rate 20 the factor blows up until A A^T swamps the noise
        # and the post-noise covariance is singular to working precision. Every
        # run must end in a finite iterate or StepSizeError, never LinAlgError.
        rng = np.random.default_rng(30)
        singular = 0
        for _ in range(300):
            d = int(rng.integers(1, 5))
            problem = SenderProblem(random_spd_target(rng, d), float(rng.choice([0.3, 1.5])))
            try:
                sol = aware_optimum_gd(problem, steps=200, learning_rate=20.0, mode="full")
            except StepSizeError as exc:
                singular += "singular" in str(exc)
            else:
                assert np.isfinite(sol.dist.cov).all() and not math.isnan(sol.kl)
        assert singular > 0


class TestSampler:
    def test_degenerate_returns_mean(self):
        dist = GaussianMessageDist(np.array([2.0, -1.0]), np.zeros((2, 2)))
        assert np.array_equal(sample_message(dist, 0.0, 0), dist.mean)

    @pytest.mark.parametrize("seed", [-1, 2.5, math.nan, "1", None, True])
    def test_bad_seed_rejected(self, seed):
        dist = GaussianMessageDist(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidParameterError, match="seed"):
            sample_message(dist, 0.5, seed)

    def test_deterministic(self):
        dist = GaussianMessageDist(np.zeros(2), np.eye(2))
        assert np.array_equal(sample_message(dist, 0.5, 11, size=100),
                              sample_message(dist, 0.5, 11, size=100))

    def test_mean_and_covariance(self):
        cov = np.array([[1.0, 0.4], [0.4, 0.8]])
        dist = GaussianMessageDist(np.array([0.5, -0.5]), cov)
        noise = 0.5
        draws = sample_message(dist, noise, 12, size=10**6)
        expected_cov = cov + noise * np.eye(2)
        centered = draws - draws.mean(axis=0)
        for i in range(2):
            se = 3 * draws[:, i].std(ddof=1) / math.sqrt(len(draws))
            assert abs(draws[:, i].mean() - dist.mean[i]) <= se
            for j in range(2):
                prods = centered[:, i] * centered[:, j]
                se = 3 * prods.std(ddof=1) / math.sqrt(len(prods))
                emp = prods.mean()
                assert abs(emp - expected_cov[i, j]) <= se

    def test_diagonal_covariance_path(self):
        dist = GaussianMessageDist.from_diagonal([0.0, 0.0], [4.0, 0.25])
        draws = sample_message(dist, 0.0, 13, size=200000)
        assert draws[:, 0].var(ddof=1) == pytest.approx(4.0, rel=0.02)
        assert draws[:, 1].var(ddof=1) == pytest.approx(0.25, rel=0.02)

    def test_diagonal_draws_match_snapshot(self):
        # Draws of a from_diagonal dist (one variance exactly 0), recorded when
        # diagonal covariances still had their own sqrt-of-diagonal root. The
        # eigh root is exact on diagonal matrices, so the draws are unchanged.
        dist = GaussianMessageDist.from_diagonal([0.5, -1.0, 2.0, 0.0], [4.0, 0.0, 0.25, 1e-3])
        assert sample_message(dist, 0.3, 17, size=3).tolist() == [
            [1.5923758480745467, 0.018558072735651354, 2.053481718839721, -0.29829223292010715],
            [-2.553653041503731, -0.9886147859170944, 1.973149449664768, 0.031150697105796602],
            [0.6566559577418416, -0.4186349786958602, 0.36464121567652075, -0.3062198593824171],
        ]
        assert sample_message(dist, 0.0, 5).tolist() == [
            -1.1038628505068948, -1.0, 1.8758191889523756, 0.013295645836587744]


    def test_zero_size_is_an_empty_array(self):
        dist = GaussianMessageDist(np.zeros(3), np.eye(3))
        assert sample_message(dist, 0.5, 0, size=0).shape == (0, 3)

    @pytest.mark.parametrize("size", [-1, 2.5, True, 10**400],
                             ids=["negative", "fraction", "bool", "401-digit"])
    def test_bad_size_rejected(self, size):
        # -1 used to raise numpy's bare ValueError; 2.5 and True drew 2 and 1.
        dist = GaussianMessageDist(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidParameterError, match="size"):
            sample_message(dist, 0.5, 0, size=size)

    @pytest.mark.parametrize("noise", [math.nan, math.inf, 10**400],
                             ids=["nan", "inf", "401-digit"])
    def test_bad_noise_rejected(self, noise):
        # NaN used to give a draw with no noise added.
        dist = GaussianMessageDist(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidParameterError, match="noise_var"):
            sample_message(dist, noise, 0)


_FLOAT_MAX = sys.float_info.max
_EDGE_FLOATS = [_FLOAT_MAX, _FLOAT_MAX / 2, math.nextafter(_FLOAT_MAX / 2, math.inf), 1e308,
                5e-324, 1e-310, sys.float_info.min, 0.0]


class TestSymmetricPart:
    """``_symmetric_part`` against the plain ``(m + m.T) / 2.0`` it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(arrays(float, st.tuples(st.integers(1, 4)).map(lambda n: (n[0], n[0])),
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(_EDGE_FLOATS + [-x for x in _EDGE_FLOATS]))))
    def test_matches_the_plain_expression(self, matrix):
        with np.errstate(over="ignore"):
            plain = (matrix + matrix.T) / 2.0
        got = _symmetric_part(matrix)
        finite = np.isfinite(plain)
        assert np.array_equal(got[finite], plain[finite])
        # Where the plain sum overflows: the correctly rounded half-sum.
        for i, j in zip(*np.nonzero(~finite)):
            assert got[i, j] == float((Fraction(matrix[i, j]) + Fraction(matrix[j, i])) / 2)

    def test_near_max_variance_is_stored(self):
        # Used to store +inf after a RuntimeWarning, and SenderProblem then
        # raised an unrelated SingularTargetError.
        dist = GaussianMessageDist.from_diagonal([0.0], [1e308])
        assert dist.cov.tolist() == [[1e308]]
        assert aware_optimum(SenderProblem(dist, 0.5)).kl == pytest.approx(0.0, abs=1e-12)


class TestDiagonalStoredExactly:
    """A covariance with no nonzero off-diagonal entry skips ``eigh``: it is
    stored as its diagonal clipped at 0, bit for bit."""

    def test_entry_beside_a_near_max_one(self):
        # eigh stored [0.9999999999999999, 1.8435488931228482e+293].
        dist = GaussianMessageDist.from_diagonal([0, 0], [1.0, 1.8435488931228486e+293])
        assert dist.cov.tolist() == [[1.0, 0.0], [0.0, 1.8435488931228486e+293]]
        # The descent that reached that iterate stores it as it is, as the float
        # path does (TestDiagonalSender::test_random_tables used to fail on it).
        target = GaussianMessageDist.from_diagonal([0, 0], [1, 0.25])
        sol = aware_optimum_gd(SenderProblem(target, 2.7121602354306614e-294), 2, 1.0)
        assert np.diag(sol.dist.cov).tolist() == [1.0, 1.8435488931228486e+293]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, _FLOAT_MAX),
                              st.sampled_from(_EDGE_FLOATS + [-0.0, -1e-13, -1e-12])),
                    min_size=1, max_size=5))
    @example([1.0, 1.8435488931228486e+293, -0.0, -1e-13])  # eigh rounds the 1.0
    def test_any_diagonal(self, variances):
        dist = GaussianMessageDist.from_diagonal(np.zeros(len(variances)), variances)
        clipped = [v if v > 0.0 else 0.0 for v in variances]  # diagonal_sender's rule
        assert np.array_equal(dist.cov, np.diag(clipped)) and not np.signbit(dist.cov).any()
        assert np.array_equal(dist._eigvals, clipped) and not np.signbit(dist._eigvals).any()

    def test_off_diagonal_entry_still_decomposed(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        dist = GaussianMessageDist([0.0, 0.0], cov)
        np.testing.assert_allclose(dist.cov, cov, rtol=1e-15)
        np.testing.assert_allclose(np.sort(dist._eigvals), np.linalg.eigvalsh(cov), rtol=1e-15)


def _large_targets(seed, low, high, count=200):
    """Random d = 4 targets with eigenvalues in U(low, high), each given to the
    constructor exactly symmetric, as outside input must be."""
    rng = np.random.default_rng(seed)
    return [GaussianMessageDist(rng.normal(size=4),
                                _symmetric_part(_rotated(rng, rng.uniform(low, high, 4))))
            for _ in range(count)]


class TestOneCovarianceStore:
    """Every covariance is stored by ``_store``, exactly symmetric, and
    ``aware_optimum`` reuses its target's checked decomposition."""

    @pytest.mark.parametrize("low,high", [(1e4, 1e5), (1e5, 1e6)])
    def test_large_eigenvalues_never_raise(self, low, high):
        # aware_optimum used to pass its rebuilt matrix back through the
        # symmetry check, whose absolute 1e-12 these fail: it raised on 191 and
        # 200 of these targets, and their re-wraps on 197 and 198.
        for target in _large_targets(int(low), low, high):
            assert np.array_equal(target.cov, target.cov.T)
            aware = aware_optimum(SenderProblem(target, 1.0)).dist
            assert np.array_equal(aware.cov, aware.cov.T)
            rewrapped = GaussianMessageDist(target.mean, target.cov)
            assert np.array_equal(rewrapped.cov, rewrapped.cov.T)

    @pytest.mark.parametrize("low,high", [(1e4, 1e5), (1e6, 1e7), (1e12, 1e13)])
    def test_rank_deficient_optima_rewrap(self, low, high):
        # The noise sits inside the spectrum, so the aware optimum zeroes some
        # eigenvalues, which eigh rounds to about high * 1e-16 of either sign.
        # Against an absolute floor of -1e-12, 88, 135 and 130 of these 200
        # re-wraps raised "covariance has negative eigenvalue".
        for target in _large_targets(int(low) % 2**32, low, high):
            aware = aware_optimum(SenderProblem(target, (low + high) / 2)).dist
            rewrapped = GaussianMessageDist(aware.mean, aware.cov)
            assert np.array_equal(rewrapped.mean, aware.mean)

    @settings(max_examples=200, deadline=None)
    @given(lowest=st.floats(-1e-12, 0.0), largest=st.floats(-1e300, 1e300))
    def test_the_floor_only_widens(self, lowest, largest):
        # Every smallest eigenvalue the absolute floor of -1e-12 accepted is accepted.
        diagonal_sender._check_lowest_eigenvalue(lowest, largest)

    def test_every_path_stores_a_symmetric_covariance(self):
        rng = np.random.default_rng(47)
        for _ in range(60):
            d = int(rng.integers(1, 7))
            scale = 10.0 ** rng.uniform(-3, 7)
            target = GaussianMessageDist(
                rng.normal(size=d), _symmetric_part(_rotated(rng, scale * rng.uniform(0.3, 3.0, d))))
            problem = SenderProblem(target, scale * rng.uniform(0.0, 2.0))
            dists = [target, GaussianMessageDist.from_diagonal(target.mean, np.diag(target.cov)),
                     oblivious_optimum(problem).dist, aware_optimum(problem).dist]
            for dist in dists:
                assert np.array_equal(dist.cov, dist.cov.T)
            GaussianMessageDist(target.mean, target.cov)  # re-wraps without error

    def test_aware_optimum_runs_no_eigh(self):
        targets = _large_targets(48, 0.3, 3.0, count=20)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            for target in targets:
                aware_optimum(SenderProblem(target, 0.5))
            assert eigh.call_count == 0
            GaussianMessageDist(targets[0].mean, targets[0].cov)
            assert eigh.call_count == 1  # the patch sees the constructor's eigh

    @settings(max_examples=100, deadline=None)
    @given(
        variances=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=6),
        exponent=st.floats(-3.0, 7.0),
        noise=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rotation_keeps_the_kls(self, variances, exponent, noise, seed):
        # A diagonal target and the same target rotated by a random orthogonal
        # Q have one spectrum, so both optima have the same KL. Rotated targets
        # at large scales used to make aware_optimum raise, and re-wrapping a
        # rank-deficient aware optimum failed the eigenvalue floor.
        scale = 10.0 ** exponent
        eigvals = scale * np.array(variances)
        mean = np.zeros(eigvals.size)
        rotated = _symmetric_part(_rotated(np.random.default_rng(seed), eigvals))
        kls = []
        for target in (GaussianMessageDist.from_diagonal(mean, eigvals),
                       GaussianMessageDist(mean, rotated)):
            problem = SenderProblem(target, scale * noise)
            aware = aware_optimum(problem)
            GaussianMessageDist(aware.dist.mean, aware.dist.cov)  # re-wraps without error
            kls.append((oblivious_optimum(problem).kl, aware.kl))
        for diagonal, rotated_kl in zip(*kls):
            assert abs(rotated_kl - diagonal) <= 1e-13 * max(1.0, abs(diagonal))

    @settings(max_examples=100, deadline=None)
    @given(
        variances=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=6),
        exponent=st.floats(-3.0, 3.0),
        noise=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_joint_scaling_keeps_the_kls(self, variances, exponent, noise, seed):
        # The mean times sqrt(s) and the covariance and the noise times s is a
        # change of units, so both optima keep their KLs.
        rng = np.random.default_rng(seed)
        mean = rng.normal(size=len(variances))
        cov = _symmetric_part(_rotated(rng, np.array(variances)))
        scale = 10.0 ** exponent
        kls = []
        for target, noise_var in ((GaussianMessageDist(mean, cov), noise),
                                  (GaussianMessageDist(math.sqrt(scale) * mean, scale * cov),
                                   scale * noise)):
            problem = SenderProblem(target, noise_var)
            kls.append((oblivious_optimum(problem).kl, aware_optimum(problem).kl))
        for kl, scaled in zip(*kls):
            assert abs(scaled - kl) <= 1e-13 * max(1.0, abs(kl))


class TestValidation:
    def test_asymmetric_covariance_rejected(self):
        with pytest.raises(InvalidParameterError):
            GaussianMessageDist(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvalidParameterError):
            GaussianMessageDist(np.zeros(2), np.diag([1.0, -0.5]))

    def test_tiny_negative_eigenvalue_projected(self):
        dist = GaussianMessageDist(np.zeros(2), np.diag([1.0, -1e-14]))
        assert np.linalg.eigvalsh(dist.cov).min() >= 0.0

    def test_target_must_be_positive_definite(self):
        with pytest.raises(InvalidParameterError):
            SenderProblem(GaussianMessageDist(np.zeros(2), np.diag([1.0, 0.0])), 0.1)

    def test_noise_var_is_stored_as_a_float(self):
        # Every solver reads the stored value: a string used to pass the check
        # and then fail in the closed forms with numpy's bare UFuncTypeError.
        target = GaussianMessageDist(np.zeros(2), np.eye(2))
        for noise in ("0.5", 1, np.float32(0.25)):
            problem = SenderProblem(target, noise)
            assert type(problem.noise_var) is float and problem.noise_var == float(noise)
            assert aware_optimum(problem).kl <= oblivious_optimum(problem).kl

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidParameterError):
            SenderProblem(GaussianMessageDist(np.zeros(1), np.eye(1)), -0.1)

    def test_non_finite_inputs_rejected(self):
        with pytest.raises(InvalidParameterError, match="finite"):
            GaussianMessageDist.from_diagonal([math.inf], [1.0])
        with pytest.raises(InvalidParameterError, match="finite"):
            GaussianMessageDist.from_diagonal([0.0], [math.inf])
        with pytest.raises(InvalidParameterError, match="noise_var"):
            SenderProblem(GaussianMessageDist(np.zeros(1), np.eye(1)), math.inf)

    # A 401-digit learning rate used to escape as a bare OverflowError.
    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"steps": 2.0}, {"steps": True},
                                        {"learning_rate": -0.1}, {"learning_rate": math.inf},
                                        {"learning_rate": 10**400}, {"mode": "dense"}])
    def test_bad_descent_parameters_rejected(self, kwargs):
        problem = SenderProblem(GaussianMessageDist(np.zeros(1), np.eye(1)), 0.1)
        name = next(iter(kwargs))
        with pytest.raises(InvalidParameterError, match=name):
            aware_optimum_gd(problem, **kwargs)

    def test_integer_beyond_float_range_rejected(self):
        # Used to raise a bare OverflowError from the float conversion.
        with pytest.raises(InvalidParameterError, match="mean holds an integer"):
            GaussianMessageDist.from_diagonal([10**400], [1.0])
        with pytest.raises(InvalidParameterError, match="variances holds an integer"):
            GaussianMessageDist.from_diagonal([0.0], [10**400])
        with pytest.raises(InvalidParameterError, match="covariance holds an integer"):
            GaussianMessageDist([0.0], [[10**400]])
        with pytest.raises(InvalidParameterError, match="covariance must be numbers"):
            GaussianMessageDist([0.0], [["abc"]])

    @pytest.mark.parametrize("build, message", [
        (lambda: GaussianMessageDist([[0.0], [1.0]], np.eye(2)),
         "mean must be a vector, got shape (2, 1)"),
        (lambda: GaussianMessageDist.from_diagonal([[0.0], [1.0]], [1.0, 1.0]),
         "mean must be a vector, got shape (2, 1)"),
        (lambda: GaussianMessageDist.from_diagonal([0.0], 1.0),
         "variances must be a vector, got shape ()"),
        (lambda: GaussianMessageDist.from_diagonal([0.0, 0.0], np.eye(2)),
         "variances must be a vector, got shape (2, 2)"),
    ], ids=["mean-column", "diagonal-mean-column", "variances-scalar", "variances-matrix"])
    def test_mean_and_variances_must_be_vectors(self, build, message):
        # Each was built once, and then raised a bare error in kl_gaussian, the
        # descent or the sampler, or claimed a covariance shape mismatch.
        with pytest.raises(InvalidParameterError) as info:
            build()
        assert str(info.value) == message

    def test_zero_dimension_rejected(self):
        # Used to be accepted, then fail in SenderProblem or kl_gaussian with
        # numpy's bare ValueError.
        with pytest.raises(InvalidParameterError, match="dimension"):
            GaussianMessageDist(np.zeros(0), np.zeros((0, 0)))
        with pytest.raises(InvalidParameterError, match="dimension"):
            GaussianMessageDist.from_diagonal([], [])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["mean", "variances"])
    def test_objective_rejects_non_finite_iterates(self, bad, where):
        # Used to return a NaN objective.
        problem = SenderProblem(GaussianMessageDist.from_diagonal([0.0, 1.0], [1.0, 2.0]), 0.3)
        point = {"mean": np.zeros(2), "variances": np.ones(2)}
        point[where][1] = bad
        with pytest.raises(InvalidParameterError, match="finite"):
            objective_grad_diag(problem, **point)

    @pytest.mark.parametrize("mean, variances, match", [
        ([0.0, 0.0, 0.0], [1.0, 1.0], "must have shape"),
        ([0.0, 0.0], [1.0, -0.5], "variances must be nonnegative"),
    ], ids=["shape", "negative-variance"])
    def test_objective_rejects_out_of_domain_iterates(self, mean, variances, match):
        problem = SenderProblem(GaussianMessageDist.from_diagonal([0.0, 1.0], [1.0, 2.0]), 0.3)
        with pytest.raises(InvalidParameterError, match=match):
            objective_grad_diag(problem, np.array(mean), np.array(variances))
