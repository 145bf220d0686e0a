"""Distribution-layer tests.

Oracles: adaptive quadrature of the normal density for the CDF, central
differences of the CDF for the density, and direct Monte-Carlo sampling
(written inline here, independent of the library's sampling code) for the
expected-l0 closed form and the zero-temperature limit.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from masko import autodiff as ad
from masko import distributions as dist
from masko.distributions import GaussianSpec, StretchConfig
from masko.errors import ConfigError, DomainError, ParameterError


def phi_quad(x):
    """Normal CDF by adaptive quadrature."""
    v, _ = integrate.quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi), -40, x, limit=200)
    return v


def mc_stretched_positive_rate(mu, row_norm, lam, gamma, eta, n_samples, seed):
    """Monte-Carlo P(stretched sample > 0), written from the definitions."""
    g = np.random.default_rng(seed).standard_normal(n_samples)
    y = 1.0 / (1.0 + np.exp(-(mu + row_norm * g) / lam))
    stretched = np.clip((eta - gamma) * y + gamma, 0.0, 1.0)
    return float((stretched > 0).mean())


def std_normal_cdf(x):
    """The library's standard normal CDF: the differentiable tape primitive."""
    return ad.normal_cdf(ad.Tape().constant(x)).data


class TestStdNormalCdf:
    def test_zero(self):
        assert std_normal_cdf(0.0) == 0.5

    @pytest.mark.parametrize("x,frozen", [(1.96, 0.9750021048517795), (-3.0, 0.001349898031630094)])
    def test_against_quadrature(self, x, frozen):
        assert phi_quad(x) == pytest.approx(frozen, abs=1e-12)
        assert std_normal_cdf(x) == pytest.approx(frozen, abs=1e-9)

    def test_symmetry(self):
        xs = np.linspace(-6, 6, 101)
        total = std_normal_cdf(xs) + std_normal_cdf(-xs)
        np.testing.assert_allclose(total, 1.0, atol=1e-12)

    def test_monotone(self):
        xs = np.linspace(-8, 8, 2001)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0)


class TestLogitnormalPdf:
    def test_point_value(self):
        # 1/(y(1-y)) = 4 at y = 0.5 and the Gaussian factor is 1/sqrt(2*pi)
        assert dist.logitnormal_pdf(0.5, 0.0, 1.0) == pytest.approx(1.5957691216057308, rel=1e-12)

    def test_matches_cdf_derivative(self):
        # independent route: finite difference of Phi((logit(y) - mu)/sigma)
        h = 1e-6
        for y, mu, sigma in [(0.3, 0.0, 1.78), (0.5, 2.0, 1.0), (0.8, 0.0, 3.0)]:
            def cdf(v):
                return phi_quad((math.log(v / (1 - v)) - mu) / sigma)

            fd = (cdf(y + h) - cdf(y - h)) / (2 * h)
            assert dist.logitnormal_pdf(y, mu, sigma) == pytest.approx(fd, rel=1e-6)

    def test_symmetry_around_half(self):
        ys = np.linspace(0.05, 0.45, 9)
        for sigma in (1.0, 1.78, 3.0):
            left = dist.logitnormal_pdf(ys, 0.0, sigma)
            right = dist.logitnormal_pdf(1.0 - ys, 0.0, sigma)
            np.testing.assert_allclose(left, right, rtol=1e-12)

    @pytest.mark.parametrize("mu,sigma", [(0.0, 1.78), (0.0, 3.0), (2.0, 1.0)])
    def test_integrates_to_one(self, mu, sigma):
        val, _ = integrate.quad(lambda y: dist.logitnormal_pdf(y, mu, sigma), 0.0, 1.0, limit=400)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            dist.logitnormal_pdf(0.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            dist.logitnormal_pdf(0.5, 0.0, 0.0)


class TestSampling:
    def test_correlated_zero_weights(self):
        tape = ad.Tape()
        w = tape.constant(np.zeros((4, 2)))
        b = tape.constant(np.zeros(4))
        z = tape.constant(np.random.default_rng(0).standard_normal(2))
        out = dist.sample_correlated(w, b, z, 1.0)
        np.testing.assert_array_equal(out.data, 0.5)

    def test_correlated_deterministic_branch(self):
        tape = ad.Tape()
        b0 = np.array([-1.0, 0.3, 2.0])
        out = dist.sample_correlated(
            tape.constant(np.ones((3, 2))), tape.constant(b0), tape.constant(np.zeros(2)), 0.3
        )
        np.testing.assert_allclose(out.data, 1 / (1 + np.exp(-b0 / 0.3)), rtol=1e-14)

    def test_correlated_symmetric_mean(self):
        rng = np.random.default_rng(1)
        tape = ad.Tape()
        w = tape.constant(np.array([[1.0]]))
        b = tape.constant(np.zeros(1))
        z = tape.constant(rng.standard_normal((1, 100_000)))
        samples = dist.sample_correlated(w, b, z, 1.0).data
        se = samples.std() / math.sqrt(samples.size)
        assert abs(samples.mean() - 0.5) < 3 * se

    def test_independent_zero_sigma(self):
        tape = ad.Tape()
        mu = np.array([-2.0, 0.0, 1.0])
        out = dist.sample_independent(
            tape.constant(mu), tape.constant(np.zeros(3)), tape.constant(np.ones(3)), 1.0
        )
        np.testing.assert_allclose(out.data, 1 / (1 + np.exp(-mu)), rtol=1e-14)

    def test_independent_cross_covariance_vanishes(self):
        rng = np.random.default_rng(2)
        tape = ad.Tape()
        n_draws = 100_000
        z = tape.constant(rng.standard_normal((3, n_draws)))
        out = dist.sample_independent(
            tape.constant(np.zeros(3)), tape.constant(np.ones(3)), z, 1.0
        ).data
        for i, j in [(0, 1), (0, 2), (1, 2)]:
            cov = np.cov(out[i], out[j])[0, 1]
            se = out[i].std() * out[j].std() / math.sqrt(n_draws)
            assert abs(cov) < 3 * se

    def test_independent_median(self):
        rng = np.random.default_rng(3)
        tape = ad.Tape()
        z = tape.constant(rng.standard_normal((1, 100_000)))
        out = dist.sample_independent(
            tape.constant(np.zeros(1)), tape.constant(np.ones(1)), z, 1.0
        ).data
        p = (out > 0.5).mean()
        assert abs(p - 0.5) < 3 * math.sqrt(0.25 / out.size)

    def test_independent_negative_sigma(self):
        tape = ad.Tape()
        with pytest.raises(ParameterError):
            dist.sample_independent(
                tape.constant(np.zeros(2)), tape.constant([-1.0, 1.0]), tape.constant(np.zeros(2)), 1.0
            )


class TestStretch:
    CFG = StretchConfig(gamma=-0.1, eta=1.1, lambda_temp=1.0)

    @pytest.mark.parametrize("y,expect", [(0.0, 0.0), (1.0, 1.0), (0.5, 0.5)])
    def test_mapping(self, y, expect):
        tape = ad.Tape()
        out = dist.stretch(tape.constant([y]), self.CFG)
        assert out.data[0] == pytest.approx(expect, abs=1e-15)

    def test_onto_unit_interval_with_atoms(self):
        rng = np.random.default_rng(4)
        tape = ad.Tape()
        y = ad.sigmoid_temp(tape.constant(rng.standard_normal(20_000) * 3), 1.0)
        out = dist.stretch(y, self.CFG).data
        assert out.min() == 0.0 and out.max() == 1.0
        assert (out == 0.0).mean() > 0.0 and (out == 1.0).mean() > 0.0
        assert np.all((out >= 0) & (out <= 1))

    def test_zero_mass_matches_cdf(self):
        # P(stretched == 0) = P(Y <= -gamma/(eta-gamma))
        rng = np.random.default_rng(5)
        mu, sigma, lam = 0.4, 1.3, 0.7
        g = rng.standard_normal(200_000)
        y = 1 / (1 + np.exp(-(mu + sigma * g) / lam))
        emp = (np.clip(1.2 * y - 0.1, 0, 1) == 0).mean()
        t = self.CFG.zero_threshold
        expect = phi_quad((lam * math.log(t / (1 - t)) - mu) / sigma)
        assert emp == pytest.approx(expect, abs=3 * math.sqrt(expect * (1 - expect) / g.size))

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            StretchConfig(gamma=0.1, eta=1.1)
        with pytest.raises(ConfigError):
            StretchConfig(gamma=-0.1, eta=0.9)
        with pytest.raises(ConfigError):
            StretchConfig(lambda_temp=-1.0)


class TestExpectedL0:
    def test_saturated_mean(self):
        spec = GaussianSpec(mu=np.array([60.0]), row_norm=np.array([1.0]))
        cfg = StretchConfig(lambda_temp=1.0)
        assert dist.expected_l0(spec, cfg) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "lam,frozen",
        [(1.0, 0.991755210486549), (0.3, 0.7640430751651066)],
    )
    def test_standard_config_against_monte_carlo(self, lam, frozen):
        spec = GaussianSpec(mu=np.array([0.0]), row_norm=np.array([1.0]))
        cfg = StretchConfig(gamma=-0.1, eta=1.1, lambda_temp=lam)
        closed = dist.expected_l0(spec, cfg)
        assert closed == pytest.approx(frozen, abs=1e-9)
        n = 1_000_000
        mc = mc_stretched_positive_rate(0.0, 1.0, lam, -0.1, 1.1, n, seed=10)
        se = math.sqrt(max(mc * (1 - mc), 1e-12) / n)
        assert abs(closed - mc) < 3 * se

    def test_random_configs_against_monte_carlo(self):
        rng = np.random.default_rng(6)
        n = 1_000_000
        for trial in range(5):
            mu = float(rng.uniform(-2, 2))
            row_norm = float(rng.uniform(0.3, 3))
            lam = float(rng.uniform(0.1, 1.0))
            gamma = float(rng.uniform(-0.3, -0.02))
            eta = float(rng.uniform(1.02, 1.3))
            cfg = StretchConfig(gamma=gamma, eta=eta, lambda_temp=lam)
            closed = dist.expected_l0(GaussianSpec(np.array([mu]), np.array([row_norm])), cfg)
            mc = mc_stretched_positive_rate(mu, row_norm, lam, gamma, eta, n, seed=100 + trial)
            se = math.sqrt(max(mc * (1 - mc), 1e-12) / n)
            assert abs(closed - mc) <= 3 * se, (mu, row_norm, lam, gamma, eta)

    def test_degenerate_rows_use_indicator(self):
        cfg = StretchConfig(lambda_temp=0.3)
        t = 0.3 * cfg.log_odds_threshold
        spec = GaussianSpec(mu=np.array([t - 0.01, t + 0.01]), row_norm=np.zeros(2))
        assert dist.expected_l0(spec, cfg) == 1.0

    def test_normalized_mode(self):
        spec = GaussianSpec(mu=np.zeros(10), row_norm=np.ones(10))
        cfg = StretchConfig(lambda_temp=1.0)
        assert dist.expected_l0(spec, cfg, normalized=True) == pytest.approx(
            dist.expected_l0(spec, cfg) / 10.0, rel=1e-15
        )

    def test_tensor_version_matches_and_differentiates(self):
        cfg = StretchConfig(lambda_temp=0.3)
        rng = np.random.default_rng(7)
        mu0 = rng.uniform(-1, 1, size=6)
        rn0 = rng.uniform(0.4, 2.0, size=6)
        tape = ad.Tape()
        out = dist.expected_l0_terms(tape.constant(mu0), tape.constant(rn0), 0.3, cfg).sum()
        assert out.item() == pytest.approx(dist.expected_l0(GaussianSpec(mu0, rn0), cfg), rel=1e-12)
        err = ad.grad_check(
            lambda t: dist.expected_l0_terms(t, t.tape.constant(rn0), 0.3, cfg).sum(), mu0
        )
        assert err < 1e-4


class TestCollapseProb:
    def test_centered(self):
        spec = GaussianSpec(mu=np.zeros(3), row_norm=np.array([0.5, 1.0, 7.0]))
        np.testing.assert_array_equal(dist.collapse_prob(spec), 0.5)

    def test_against_low_temperature_monte_carlo(self):
        # W row (3, 4) has norm 5; b = -5 selects with prob 1 - Phi(1)
        spec = GaussianSpec(mu=np.array([-5.0]), row_norm=np.array([5.0]))
        closed = dist.collapse_prob(spec)[0]
        assert closed == pytest.approx(0.15865525393145685, abs=1e-9)
        rng = np.random.default_rng(8)
        n = 1_000_000
        z = rng.standard_normal((2, n))
        pre = 3.0 * z[0] + 4.0 * z[1] - 5.0
        y = 1 / (1 + np.exp(-np.clip(pre / 1e-3, -700, 700)))
        emp = (y > 0.5).mean()
        assert abs(emp - closed) < 3 * math.sqrt(closed * (1 - closed) / n)

    def test_limits_and_degenerate(self):
        spec = GaussianSpec(mu=np.array([-80.0, 80.0]), row_norm=np.ones(2))
        np.testing.assert_allclose(dist.collapse_prob(spec), [0.0, 1.0], atol=1e-12)
        det = GaussianSpec(mu=np.array([-1.0, 0.0, 2.0]), row_norm=np.zeros(3))
        np.testing.assert_array_equal(dist.collapse_prob(det), [0.0, 0.5, 1.0])

    def test_zero_temperature_convergence(self):
        # empirical P(Y > 0.99) approaches the collapse probability as the
        # temperature drops; configs picked with enough pre-sigmoid spread
        # that the finite-temperature bias at 0.01 stays under the gate
        rng = np.random.default_rng(9)
        n = 100_000
        for w_row, b in [(np.array([2.0, -1.5, 1.2]), 3.0), (np.array([3.0, 1.0]), -2.0), (np.array([4.0]), 1.0)]:
            sigma = float(np.sqrt((w_row**2).sum()))
            target = dist.collapse_prob(GaussianSpec(np.array([b]), np.array([sigma])))[0]
            gaps = []
            for lam in (1.0, 0.3, 0.1, 0.03, 0.01):
                z = rng.standard_normal((w_row.size, n))
                pre = w_row @ z + b
                y = 1 / (1 + np.exp(-np.clip(pre / lam, -700, 700)))
                gaps.append(abs((y > 0.99).mean() - target))
            assert gaps[-1] < 0.01
            assert gaps[-1] <= gaps[0]


class TestConcrete:
    def test_median_noise(self):
        tape = ad.Tape()
        out = dist.sample_concrete(tape.constant(np.zeros(3)), 2 / 3, tape.constant(np.full(3, 0.5)))
        np.testing.assert_allclose(out.data, 0.5, atol=1e-15)

    def test_monotone_in_noise(self):
        tape = ad.Tape()
        u = np.linspace(0.01, 0.99, 50)
        out = dist.sample_concrete(tape.constant(np.zeros(50)), 2 / 3, tape.constant(u)).data
        assert np.all(np.diff(out) > 0)

    def test_symmetric_median(self):
        rng = np.random.default_rng(10)
        tape = ad.Tape()
        u = tape.constant(rng.uniform(1e-12, 1 - 1e-12, size=100_000))
        out = dist.sample_concrete(tape.constant(np.zeros(100_000)), 2 / 3, u).data
        p = (out > 0.5).mean()
        assert abs(p - 0.5) < 3 * math.sqrt(0.25 / out.size)

    def test_boundary_noise_rejected(self):
        tape = ad.Tape()
        with pytest.raises(DomainError):
            dist.sample_concrete(tape.constant(np.zeros(2)), 2 / 3, tape.constant([0.0, 0.5]))

    def test_concrete_l0_matches_monte_carlo(self):
        cfg = StretchConfig(gamma=-0.1, eta=1.1, lambda_temp=2 / 3)
        rng = np.random.default_rng(11)
        log_alpha = np.array([0.7])
        tape = ad.Tape()
        closed = dist.concrete_l0_terms(tape.constant(log_alpha), 2 / 3, cfg).sum().item()
        n = 1_000_000
        u = rng.uniform(1e-12, 1 - 1e-12, size=n)
        x = 1 / (1 + np.exp(-(log_alpha[0] + np.log(u) - np.log1p(-u)) / (2 / 3)))
        mc = (np.clip(1.2 * x - 0.1, 0, 1) > 0).mean()
        assert abs(closed - mc) < 3 * math.sqrt(mc * (1 - mc) / n)


def test_l1_equals_l0_on_binary_vectors():
    rng = np.random.default_rng(12)
    for _ in range(20):
        s = (rng.random(64) < rng.random()).astype(np.float64)
        assert np.abs(s).sum() == np.count_nonzero(s)
