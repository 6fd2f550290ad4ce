"""Reference-density model tests against scipy and finite differences."""

import sys
import threading

import numpy as np
import pytest
from scipy.special import gammainccinv, gammaincinv, ndtr
from scipy.stats import expon, gamma as gamma_dist

from gammakde import models
from gammakde.models import (
    _BLOCK,
    _TABLES_MAX,
    _Z_STEPS,
    _Z_TABLE,
    DensityModel,
    GammaMarginal,
    _from_normal_block,
    _normal_table,
    _shape_table,
    from_pdf,
    product_exponential,
    product_gamma,
)

X_PROBE = np.array([0.2, 0.7, 1.0, 2.5, 6.0])


class TestGammaMarginal:
    @pytest.mark.parametrize("k,th", [(1.0, 1.0), (3.0, 1.0), (2.5, 0.4),
                                      (0.7, 2.0)])
    def test_pdf_matches_scipy(self, k, th):
        m = GammaMarginal(k, th)
        np.testing.assert_allclose(
            m.pdf(X_PROBE), gamma_dist.pdf(X_PROBE, a=k, scale=th), rtol=1e-12
        )

    def test_pdf_at_zero(self):
        assert GammaMarginal(3.0).pdf(0.0) == 0.0
        assert GammaMarginal(1.0, 0.5).pdf(0.0) == 2.0

    @pytest.mark.parametrize("k,th", [(1.0, 1.0), (3.0, 1.0), (2.5, 0.4)])
    def test_derivatives_match_finite_differences(self, k, th):
        m = GammaMarginal(k, th)
        h = 1e-5
        fd1 = (m.pdf(X_PROBE + h) - m.pdf(X_PROBE - h)) / (2 * h)
        fd2 = (m.d1(X_PROBE + h) - m.d1(X_PROBE - h)) / (2 * h)
        fd3 = (m.d2(X_PROBE + h) - m.d2(X_PROBE - h)) / (2 * h)
        np.testing.assert_allclose(m.d1(X_PROBE), fd1, rtol=1e-7, atol=1e-10)
        np.testing.assert_allclose(m.d2(X_PROBE), fd2, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(m.d3(X_PROBE), fd3, rtol=1e-5, atol=1e-8)

    def test_exponential_derivatives_closed_form(self):
        # Exp(1): every derivative is (-1)^r e^{-x}
        m = GammaMarginal(1.0, 1.0)
        e = np.exp(-X_PROBE)
        np.testing.assert_allclose(m.d1(X_PROBE), -e, rtol=1e-13)
        np.testing.assert_allclose(m.d2(X_PROBE), e, rtol=1e-13)
        np.testing.assert_allclose(m.d3(X_PROBE), -e, rtol=1e-13)

    def test_cdf_quantile_inverse(self):
        m = GammaMarginal(2.3, 1.7)
        q = np.array([0.01, 0.3, 0.5, 0.9, 0.999])
        np.testing.assert_allclose(m.cdf(m.quantile(q)), q, rtol=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            GammaMarginal(0.0)
        with pytest.raises(ValueError):
            GammaMarginal(1.0, -1.0)

    @pytest.mark.parametrize("k,th", [(np.nan, 1.0), (3.0, np.nan),
                                      (np.inf, 1.0), (3.0, np.inf)])
    def test_rejects_non_finite_parameters(self, k, th):
        with pytest.raises(ValueError, match="must be finite and positive"):
            GammaMarginal(k, th)


def _tail_reference(k, th, z):
    """gammaincinv(k, ndtr(z)) for z <= 0, gammainccinv(k, ndtr(-z)) above."""
    return th * np.where(z <= 0, gammaincinv(k, ndtr(z)),
                         gammainccinv(k, ndtr(-z)))


def _assert_relative(got, ref, rtol):
    """Within rtol relative; exactly 0 where the reference underflows."""
    zero = ref == 0.0
    np.testing.assert_array_equal(got[zero], 0.0)
    np.testing.assert_allclose(got[~zero], ref[~zero], rtol=rtol, atol=0.0)


Z_WIDE = np.linspace(-37.0, 37.0, 20_001)


def _one_pass(m, z):
    """from_normal's values computed on all of z at once, not in blocks."""
    z = np.asarray(z, dtype=float)
    x = np.empty(z.size)
    _from_normal_block(m.shape, _normal_table(m.shape), z.ravel(), x)
    return m.scale * x.reshape(z.shape)


def _earlier_block(k, table, z, x):
    """``_from_normal_block`` as its earlier sequence, written out: the
    piece by ``astype``, t by a float minus intp subtract, four row
    ``take``s, the Halley mask ``halley.take(i) & ~far`` and the far
    values after it."""
    z_lo, coef, halley = table
    far = ~((z >= z_lo) & (z < _Z_TABLE))
    u = (np.where(far, 0.0, z) + _Z_TABLE) * _Z_STEPS
    i = np.minimum(u.astype(np.intp), coef.shape[1] - 1)
    t = u - i
    y = coef[3].take(i)
    y = y * t + coef[2].take(i)
    y = y * t + coef[1].take(i)
    y = y * t + coef[0].take(i)
    np.exp(y, out=x)
    step = np.flatnonzero(halley.take(i) & ~far)
    if step.size:
        x[step] = models._halley_step(k, z.take(step), x.take(step),
                                      y.take(step))
    if far.any():
        x[far] = models._tail_inverse(k, z[far])


@pytest.fixture
def table_builds(monkeypatch):
    """An empty table cache, and the shapes _normal_table builds for it."""
    builds = []

    def counted(k):
        builds.append(k)
        return _normal_table(k)

    monkeypatch.setattr(models, "_TABLES", {})
    monkeypatch.setattr(models, "_normal_table", counted)
    return builds


class TestFromNormal:
    @pytest.mark.parametrize("k", [0.01, 0.05, 0.2, 0.5, 1.0, 3.0, 10.0,
                                   100.0])
    def test_matches_tail_inverse(self, k):
        got = GammaMarginal(k, 1.7).from_normal(Z_WIDE)
        _assert_relative(got, _tail_reference(k, 1.7, Z_WIDE),
                         rtol=1e-12 if k < 0.5 else 1e-13)

    @pytest.mark.parametrize("k", [0.05, 0.5, 1.0, 3.0, 10.0, 100.0])
    def test_dense_in_every_table_piece(self, k):
        # pieces are marked for a Halley step from their midpoint alone,
        # so check 16 points in each
        pieces = int(2 * _Z_TABLE * _Z_STEPS)
        z = -_Z_TABLE + (np.arange(pieces * 16) / 16) / _Z_STEPS
        _assert_relative(GammaMarginal(k, 1.7).from_normal(z),
                         _tail_reference(k, 1.7, z),
                         rtol=1e-12 if k < 0.5 else 1e-13)

    @pytest.mark.parametrize("k", [1.0, 3.0])
    def test_no_halley_step_at_common_shapes(self, k):
        assert not _normal_table(k)[2].any()

    def test_exponential_closed_form(self):
        th = 0.6
        z = Z_WIDE
        with np.errstate(divide="ignore"):
            ref = th * np.where(z > 0, -np.log(ndtr(-z)),
                                -np.log1p(-ndtr(z)))
        _assert_relative(GammaMarginal(1.0, th).from_normal(z), ref,
                         rtol=1e-13)

    @pytest.mark.parametrize("k", [0.5, 3.0])
    def test_nondecreasing(self, k):
        # dense around the switches at 0 and +-8.5 and across the table
        z = np.sort(np.concatenate([
            np.linspace(-37.0, 37.0, 40_001),
            np.linspace(-1e-9, 1e-9, 201),
            np.linspace(-8.5 - 1e-9, -8.5 + 1e-9, 201),
            np.linspace(8.5 - 1e-9, 8.5 + 1e-9, 201),
        ]))
        assert np.all(np.diff(GammaMarginal(k).from_normal(z)) >= 0.0)

    def test_upper_tail_stays_finite(self):
        # ndtr(z) rounds to 1 beyond z ~ 8.29, where quantile(ndtr(z)) is inf
        m = GammaMarginal(3.0)
        z = np.array([8.3, 9.0, 20.0, 37.0])
        x = m.from_normal(z)
        assert np.all(np.isfinite(x))
        _assert_relative(x, gammainccinv(3.0, ndtr(-z)), rtol=1e-13)

    def test_scalar_matches_array(self):
        m = GammaMarginal(3.0, 2.0)
        for z in (-9.0, -0.4, 0.0, 1.3, 12.0):
            x = m.from_normal(z)
            assert np.shape(x) == ()
            assert x == m.from_normal(np.array([z]))[0]

    @pytest.mark.parametrize("k", [0.05, 3.0])
    @pytest.mark.parametrize("size", [_BLOCK - 1, _BLOCK, _BLOCK + 1,
                                      3 * _BLOCK + 5])
    def test_blocks_match_one_pass(self, k, size):
        # about 3% of the values lie past the table, at |z| >= 8.5, and at
        # k = 0.05 half of the pieces take a Halley step
        m = GammaMarginal(k, 1.7)
        z = np.random.default_rng(size).standard_normal(size) * 4.0
        np.testing.assert_array_equal(m.from_normal(z), _one_pass(m, z))

    def test_blocks_keep_the_input_shape(self):
        m = GammaMarginal(2.5, 1.3)
        z = np.random.default_rng(3).standard_normal((3, _BLOCK + 7)) * 4.0
        for zz in (z, z.T, np.empty((0,))):
            np.testing.assert_array_equal(m.from_normal(zz), _one_pass(m, zz))

    @pytest.mark.parametrize("k", [0.05, 0.3, 1.0, 3.0, 1e3, 3e4, 1e6])
    def test_block_is_the_earlier_sequence(self, k):
        # bit for bit on blocks with no far value, with far values only,
        # with both, and empty; at z = +-8.5, their neighbouring doubles,
        # and below z_lo, which is above -8.5 at k = 0.05, where low
        # nodes underflow. The pieces at k = 0.05 and 0.3 that take a
        # Halley step (thousands and hundreds) are met by the random blocks
        table = _shape_table(k)
        z_lo = table[0]
        assert table[2].any() or k not in (0.05, 0.3)
        assert (z_lo > -_Z_TABLE) == (k == 0.05)
        rng = np.random.default_rng(int(k * 100))
        edges = np.array([-_Z_TABLE, _Z_TABLE, z_lo])
        around = np.concatenate([edges, np.nextafter(edges, np.inf),
                                 np.nextafter(edges, -np.inf)])
        near = rng.uniform(z_lo, _Z_TABLE, 3 * _BLOCK)
        near[:3] = [z_lo, np.nextafter(_Z_TABLE, 0.0), 0.0]
        blocks = [
            around,
            near,
            rng.standard_normal(2 * _BLOCK) * 4.0,
            np.concatenate([rng.uniform(_Z_TABLE, 40.0, 50),
                            rng.uniform(-40.0, z_lo, 50),
                            [_Z_TABLE, np.nextafter(z_lo, -np.inf)]]),
            z_lo - np.linspace(0.0, 1.0, 101)[1:],
            np.empty(0),
        ]
        for z in blocks:
            got, want = np.empty(z.size), np.empty(z.size)
            _from_normal_block(k, table, z, got)
            _earlier_block(k, table, z, want)
            assert got.tobytes() == want.tobytes()

    def test_lazy_table_race_is_bitwise_stable(self, table_builds):
        # the cache is empty, so the 4 racing threads meet the first build
        m = GammaMarginal(2.5, 1.3)
        z = np.random.default_rng(5).standard_normal(20_000) * 3.0
        start = threading.Barrier(4)
        out = [None] * 4

        def work(j):
            start.wait(timeout=30)
            out[j] = m.from_normal(z)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j,))
                       for j in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert table_builds == [2.5]
        for x in out[1:]:
            np.testing.assert_array_equal(x, out[0])
        np.testing.assert_array_equal(m.from_normal(z), out[0])

    def test_instances_share_one_table(self, table_builds):
        z = np.linspace(-9.0, 9.0, 1001)
        x = [GammaMarginal(3.0, s).from_normal(z) for s in (0.5, 1.0, 2.0)]
        assert table_builds == [3.0]
        np.testing.assert_array_equal(x[2], 4.0 * x[0])
        z_lo, coef, halley = _shape_table(3.0)
        assert not (coef.flags.writeable or halley.flags.writeable)

    def test_table_cache_is_bounded(self, table_builds):
        shapes = [1.0 + j for j in range(_TABLES_MAX + 2)]
        for k in shapes:
            GammaMarginal(k).from_normal(0.0)
        assert list(models._TABLES) == shapes[2:]
        GammaMarginal(shapes[0]).from_normal(0.0)
        assert table_builds == shapes + shapes[:1]


class TestProductModels:
    def test_exponential_product_pdf(self):
        m = product_exponential(rates=[1.0, 2.0], d=2)
        x = np.array([[0.5, 0.3], [1.0, 1.0]])
        want = expon.pdf(x[:, 0]) * expon.pdf(x[:, 1], scale=0.5)
        np.testing.assert_allclose(m.pdf(x), want, rtol=1e-12)

    def test_gamma_product_pdf(self):
        m = product_gamma([3.0, 2.0], scales=[1.0, 0.5])
        x = np.array([[1.0, 0.7]])
        want = (gamma_dist.pdf(1.0, a=3.0)
                * gamma_dist.pdf(0.7, a=2.0, scale=0.5))
        assert m.pdf(x)[0] == pytest.approx(want, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        m = product_gamma([3.0, 2.0, 1.5])
        rng = np.random.Generator(np.random.Philox(key=5))
        x = rng.uniform(0.3, 4.0, size=(6, 3))
        g = m.grad(x)
        h = 1e-6
        for j in range(3):
            hi, lo = x.copy(), x.copy()
            hi[:, j] += h
            lo[:, j] -= h
            fd = (m.pdf(hi) - m.pdf(lo)) / (2 * h)
            np.testing.assert_allclose(g[:, j], fd, rtol=1e-7, atol=1e-11)

    def test_hess_diag_matches_finite_differences(self):
        m = product_gamma([3.0, 2.0])
        x = np.array([[1.0, 0.8], [2.0, 1.5]])
        hd = m.hess_diag(x)
        h = 1e-4
        for j in range(2):
            hi, lo = x.copy(), x.copy()
            hi[:, j] += h
            lo[:, j] -= h
            fd = (m.pdf(hi) - 2 * m.pdf(x) + m.pdf(lo)) / h**2
            np.testing.assert_allclose(hd[:, j], fd, rtol=1e-6)

    def test_third_and_mixed_against_marginals(self):
        # d^3 f / dx_0^2 dx_1 = g0'' * g1' for a product of two marginals
        m0, m1 = GammaMarginal(3.0), GammaMarginal(2.0)
        m = product_gamma([3.0, 2.0])
        x = np.array([[1.2, 0.9]])
        assert m.third(x, 0, 1)[0] == pytest.approx(
            m0.d2(1.2) * m1.d1(0.9), rel=1e-12)
        assert m.third(x, 1, 1)[0] == pytest.approx(
            m0.pdf(1.2) * m1.d3(0.9), rel=1e-12)
        assert m.mixed(x, 0, 1)[0] == pytest.approx(
            m0.d1(1.2) * m1.d1(0.9), rel=1e-12)
        assert m.mixed(x, 0, 0)[0] == pytest.approx(
            m0.d2(1.2) * m1.pdf(0.9), rel=1e-12)

        # at d = 3 an axis outside (j, i) contributes its pdf
        shapes, scales = [3.0, 2.0, 4.5], [1.0, 0.5, 2.0]
        gs = [GammaMarginal(k, s) for k, s in zip(shapes, scales)]
        m = product_gamma(shapes, scales)
        x = np.array([[1.2, 0.9, 3.1]])

        def want(*orders):
            # the product of each marginal's derivative of its order
            return np.prod([(g.pdf, g.d1, g.d2, g.d3)[o](x[0, a])
                            for a, (g, o) in enumerate(zip(gs, orders))])

        def orders(*axes):
            return [sum(a == j for a in axes) for j in range(3)]

        for j in range(3):
            assert m.grad(x)[0, j] == pytest.approx(want(*orders(j)),
                                                    rel=1e-12)
            assert m.hess_diag(x)[0, j] == pytest.approx(
                want(*orders(j, j)), rel=1e-12)
            for i in range(3):
                assert m.third(x, j, i)[0] == pytest.approx(
                    want(*orders(j, j, i)), rel=1e-12)
                assert m.mixed(x, j, i)[0] == pytest.approx(
                    want(*orders(j, i)), rel=1e-12)

    def test_quantile_is_per_axis(self):
        m = product_gamma([3.0, 1.0], scales=[1.0, 2.0])
        q = m.quantile(0.5)
        assert q.shape == (2,)
        assert q[1] == pytest.approx(2.0 * np.log(2.0), rel=1e-12)

    def test_dim_broadcast(self):
        m = product_exponential(1.0, d=3)
        assert m.dim == 3
        assert m.pdf(np.ones((1, 3)))[0] == pytest.approx(np.exp(-3.0))


class TestFromPdf:
    def test_numeric_wrapper_matches_analytic(self):
        analytic = product_gamma([3.0])
        numeric = from_pdf(lambda x: analytic.pdf(x), dim=1)
        x = np.array([[0.8], [1.5], [3.0]])
        np.testing.assert_allclose(numeric.grad(x), analytic.grad(x),
                                   rtol=1e-6)
        np.testing.assert_allclose(numeric.hess_diag(x),
                                   analytic.hess_diag(x), rtol=1e-4)
        np.testing.assert_allclose(numeric.third(x, 0, 0),
                                   analytic.third(x, 0, 0), rtol=1e-3)

    def test_numeric_wrapper_2d_mixed(self):
        analytic = product_gamma([3.0, 2.0])
        numeric = from_pdf(lambda x: analytic.pdf(x), dim=2,
                           probe=np.array([[1.0, 1.0]]))
        x = np.array([[1.0, 0.9]])
        assert numeric.mixed(x, 0, 1)[0] == pytest.approx(
            analytic.mixed(x, 0, 1)[0], rel=1e-4)
        # the cross third and the diagonal mixed stencils, at a point
        # where none of the four analytic values is near 0 or equal to
        # another (at x = (1, 0.9) third(x, 0, 1) is near 0, and
        # third(x, 1, 0) equals mixed(x, 1, 1))
        x = np.array([[0.8, 0.7]])
        for j, i in ((0, 1), (1, 0)):
            assert numeric.third(x, j, i)[0] == pytest.approx(
                analytic.third(x, j, i)[0], rel=1e-3)
        for a in (0, 1):
            assert numeric.mixed(x, a, a)[0] == pytest.approx(
                analytic.mixed(x, a, a)[0], rel=1e-4)

    def test_validation_catches_wrong_gradient(self):
        from gammakde.models import DensityModel
        m = product_gamma([3.0])
        with pytest.raises(ValueError, match="gradient inconsistent"):
            DensityModel(
                1, m.pdf,
                grad=lambda x: 2.0 * m.grad(x),
                hess_diag=m.hess_diag, third=m.third, mixed=m.mixed,
                quantile=m.quantile,
            )

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
    def test_validation_catches_wrong_gradient_at_any_scale(self, scale):
        m = product_gamma([3.0], scales=[scale])
        with pytest.raises(ValueError, match="gradient inconsistent"):
            DensityModel(
                1, m.pdf,
                grad=lambda x: 2.0 * m.grad(x),
                hess_diag=m.hess_diag, third=m.third, mixed=m.mixed,
                quantile=m.quantile,
            )

    @pytest.mark.parametrize("shape,scale", [(3.0, 1e-3), (3.0, 1e3),
                                             (1e6, 1e-6)])
    def test_validation_accepts_any_scale_and_width(self, shape, scale):
        # Gamma(1e6, 1e-6) has sd 1e-3 around 1
        assert product_gamma([shape, 2.0], scales=[scale, 1.0]).dim == 2
