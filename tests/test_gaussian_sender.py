import math
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
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
from dpcomm.gaussian_sender import objective_grad_diag, positive_part


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
    eigenvalue floor, and a second ``eigh`` projects onto the PSD cone."""
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
    if eigvals.min(initial=0.0) < -1e-12:
        raise InvalidParameterError(f"covariance has negative eigenvalue {eigvals.min():.3g}")
    eigvals, eigvecs = np.linalg.eigh(sym)
    return _RefDist(mean, (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T)


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

    def test_singular_q_rejected(self):
        p = GaussianMessageDist(np.zeros(2), np.eye(2))
        q = GaussianMessageDist(np.zeros(2), np.diag([1.0, 0.0]))
        with pytest.raises(SingularTargetError):
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
    """Whether the smallest eigenvalue is within rounding of the -1e-12 floor.

    ``eigvalsh`` and ``eigh`` of one matrix can return smallest eigenvalues a
    few ulps apart (up to 2e-15 at norm 3 over 3000 random matrices), so the
    reference constructor and the new one may rule differently when the
    smallest eigenvalue is that close to the floor. The margin is 64 ulps of
    the largest eigenvalue.
    """
    eigvals = np.linalg.eigvalsh((cov + cov.T) / 2.0)
    margin = 64 * np.finfo(float).eps * max(1.0, np.abs(eigvals).max())
    return abs(eigvals.min() + 1e-12) <= margin


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
            eigvals[0] = -1e-12 * rng.choice([1.0, 1.0 + 1e-3, 1.0 - 1e-3, 0.5, 2.0, 0.0])
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
        # and Cholesky each call the matrix singular or not by rounding, in both
        # versions, so they are not compared.
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

    def test_projection_idempotent(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = rng.normal(size=(4, 4))
            sym = (m + m.T) / 2
            once = positive_part(sym)
            assert np.allclose(positive_part(once), once, atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), noise=st.floats(1e-3, 2.0))
    def test_dominance_property(self, d, seed, noise):
        # At noise 1e-3 the oblivious KL is at least (1e-3 / 3)^2 / 4 = 2.8e-8
        # on these targets (eigenvalues at most 3), far above rounding.
        problem = SenderProblem(random_spd_target(np.random.default_rng(seed), d), noise)
        assert aware_optimum(problem).kl < oblivious_optimum(problem).kl

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 6).flatmap(
        lambda d: arrays(np.float64, (d, d), elements=st.floats(-10.0, 10.0))))
    def test_projection_idempotent_property(self, m):
        once = positive_part((m + m.T) / 2)
        np.testing.assert_allclose(positive_part(once), once, rtol=0.0,
                                   atol=1e-12 * max(1.0, np.abs(once).max()))

    def test_aware_projection_stable(self):
        # Re-deriving the optimum from the already-shrunk spectrum changes nothing.
        rng = np.random.default_rng(6)
        target = random_spd_target(rng, 4)
        noise = 1.0
        sol = aware_optimum(SenderProblem(target, noise))
        again = aware_optimum(SenderProblem(
            GaussianMessageDist(target.mean, sol.dist.cov + noise * np.eye(4)), noise))
        assert np.allclose(again.dist.cov, sol.dist.cov, atol=1e-10)


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


    @pytest.mark.parametrize("noise", [math.nan, math.inf, 10**400],
                             ids=["nan", "inf", "401-digit"])
    def test_bad_noise_rejected(self, noise):
        # NaN used to give a draw with no noise added.
        dist = GaussianMessageDist(np.zeros(2), np.eye(2))
        with pytest.raises(InvalidParameterError, match="noise_var"):
            sample_message(dist, noise, 0)


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

    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"steps": 2.0}, {"steps": True},
                                        {"learning_rate": -0.1}, {"learning_rate": math.inf}])
    def test_bad_descent_parameters_rejected(self, kwargs):
        problem = SenderProblem(GaussianMessageDist(np.zeros(1), np.eye(1)), 0.1)
        name = next(iter(kwargs))
        with pytest.raises(InvalidParameterError, match=name):
            aware_optimum_gd(problem, **kwargs)
