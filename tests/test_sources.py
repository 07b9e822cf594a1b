import math

import numpy as np
import pytest

from bifield.currents import current_rows, eh_field, eh_rows
from bifield.errors import SingularPoint, raise_first
from bifield.models import ModelParams
from bifield.observables import _far_radius, hamiltonian_on_points
from bifield.sources import (
    ChargeConfig,
    PointCharge,
    _coulomb_gradient,
    _coulomb_jacobian,
    _coulomb_offsets,
    _db_weights,
    _pair_distances,
)
from bifield.verify import jm_classical_jacobi_term

from triple_sums import _coulomb_potential_sum, _coulomb_sum, coulomb_rows

FOUR_PI = 4.0 * math.pi
EPS = np.finfo(float).eps


def random_config(rng, n):
    return ChargeConfig.build([
        (rng.uniform(-2.0, 2.0, 3), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        for _ in range(n)
    ])


def checked_d(cfg, pts):
    """D from eh_rows at points of shape (N, 3), raising the first failing
    point's recorded failure."""
    state = eh_rows(ModelParams.classical(beta=1.0), cfg, pts)
    raise_first(state.code, state.errors)
    return state.d


def two_center():
    return ChargeConfig.build(
        [((0.0, 0.0, 0.0), 1.0, 0.5), ((1.0, 0.0, 0.0), -2.0, 0.25)]
    )


class TestSingleCharge:
    def test_coulomb_value(self):
        cfg = ChargeConfig.build([((0, 0, 0), 1.0, 0.0)])
        d = coulomb_rows(cfg, cfg.qs, np.array([[2.0, 0.0, 0.0]]))[0]
        np.testing.assert_allclose(d, [1.0 / (FOUR_PI * 4.0), 0.0, 0.0], rtol=1e-14)

    def test_potential_value(self):
        # the reference potential the gradient checks below differentiate
        cfg = ChargeConfig.build([((0, 0, 0), 3.0, -1.0)])
        u = _coulomb_potential_sum(cfg, cfg.qs, (0.0, 2.0, 0.0))
        assert u == pytest.approx(3.0 / (FOUR_PI * 2.0), rel=1e-14)
        v = _coulomb_potential_sum(cfg, cfg.gs, (0.0, 2.0, 0.0))
        assert v == pytest.approx(-1.0 / (FOUR_PI * 2.0), rel=1e-14)

    def test_magnetic_uses_g(self):
        cfg = ChargeConfig.build([((0, 0, 0), 1.0, -4.0)])
        _, b = coulomb_rows(cfg, _db_weights(cfg), np.array([[0.0, 0.0, 1.0]]))[:, 0]
        np.testing.assert_allclose(b, [0.0, 0.0, -4.0 / FOUR_PI], rtol=1e-14)


class TestGradientConsistency:
    def test_d_is_minus_grad_potential(self):
        cfg = two_center()
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(-2, 3, size=3)
            if min(np.linalg.norm(x - p) for p in cfg.positions) < 0.3:
                continue
            h = 1e-5
            grad = np.zeros(3)
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                up = _coulomb_potential_sum(cfg, cfg.qs, x + e)
                dn = _coulomb_potential_sum(cfg, cfg.qs, x - e)
                grad[k] = (up - dn) / (2 * h)
            d = coulomb_rows(cfg, cfg.qs, x[None, :])[0]
            np.testing.assert_allclose(-grad, d, rtol=1e-7, atol=1e-10)

    def test_b_is_minus_grad_magnetic_potential(self):
        cfg = two_center()
        x = np.array([0.4, 0.7, -0.3])
        h = 1e-5
        grad = np.zeros(3)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            up = _coulomb_potential_sum(cfg, cfg.gs, x + e)
            dn = _coulomb_potential_sum(cfg, cfg.gs, x - e)
            grad[k] = (up - dn) / (2 * h)
        b = coulomb_rows(cfg, _db_weights(cfg), x[None, :])[1, 0]
        np.testing.assert_allclose(-grad, b, rtol=1e-7, atol=1e-10)


class TestExactCancellation:
    def test_mirror_pair_cancels_exactly(self):
        # fsum accumulation keeps the midpoint field at exactly zero
        cfg = ChargeConfig.build([((1, 0, 0), 2.0, 0.0), ((-1, 0, 0), 2.0, 0.0)])
        d = coulomb_rows(cfg, cfg.qs, np.zeros((1, 3)))[0]
        assert d[0] == 0.0

    def test_summation_in_config_order(self):
        cfg1 = ChargeConfig.build([((1, 2, 0), 1.0, 0.0), ((0, -1, 1), 2.0, 0.0)])
        cfg2 = ChargeConfig.build([((0, -1, 1), 2.0, 0.0), ((1, 2, 0), 1.0, 0.0)])
        x = np.array([[0.3, 0.4, 0.5]])
        # fsum is order-independent up to the final rounding; values agree exactly
        np.testing.assert_array_equal(
            coulomb_rows(cfg1, cfg1.qs, x), coulomb_rows(cfg2, cfg2.qs, x)
        )


class TestKernelAgainstFsumOracle:
    """The Coulomb kernel against the correctly rounded fsum sums.

    The two round each term in the same number of steps but take |r| by
    different numpy routes (a dot against a reduction), which differ by an
    ulp in about one term in eight. Over 24000 random configurations with
    n = 1..8 they stay within 4.8 eps sum_i |t_i|; the gate is 8 eps.
    """

    @staticmethod
    def bound(cfg, weights, x):
        r = np.abs(x[None, :] - cfg.positions)
        dist = np.linalg.norm(r, axis=1)
        return 8.0 * EPS * np.sum(np.abs(weights)[:, None] * r / (FOUR_PI * dist[:, None] ** 3),
                                  axis=0)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_fields_and_potential(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(40):
            cfg = random_config(rng, n)
            pts = rng.uniform(-3.0, 3.0, size=(8, 3))
            stacked = coulomb_rows(cfg, _db_weights(cfg), pts)
            single = [coulomb_rows(cfg, w, pts) for w in (cfg.qs, cfg.gs)]
            for i, x in enumerate(pts):
                for k, w in enumerate((cfg.qs, cfg.gs)):
                    ref = _coulomb_sum(cfg, w, x)
                    tol = self.bound(cfg, w, x)
                    assert np.all(np.abs(single[k][i] - ref) <= tol)
                    assert np.all(np.abs(stacked[k, i] - ref) <= tol)


class TestCoulombJacobian:
    """sources._coulomb_jacobian, the J_D and J_B of the current kernel."""

    @pytest.mark.parametrize("n", range(1, 9))
    def test_against_the_term_by_term_sum(self, n):
        # J = sum_j c_j (I - 3 r_j r_j^T / |r_j|^2) against its fsum, within
        # 8 eps of sum_j |c_j| (I + 3 |r_j r_j^T| / |r_j|^2); exactly symmetric, and
        # traceless to rounding (F is divergence-free off the centres)
        rng = np.random.default_rng(400 + n)
        cfg = random_config(rng, n)
        pts = rng.uniform(-3.0, 3.0, size=(50, 3))
        weights = _db_weights(cfg)
        f, jac = _coulomb_jacobian(weights, *_coulomb_offsets(cfg, pts)[:2])
        assert f.shape == (2, 50, 3) and jac.shape == (2, 50, 3, 3)
        np.testing.assert_array_equal(f, coulomb_rows(cfg, weights, pts))
        np.testing.assert_array_equal(jac, np.swapaxes(jac, -1, -2))
        for k, w in enumerate(weights):
            for i, x in enumerate(pts):
                terms, scale = [], 0.0
                for pos, wj in zip(cfg.positions, w):
                    r = x - pos
                    rn = float(np.linalg.norm(r))
                    c, rr = wj / (FOUR_PI * rn**3), np.outer(r, r) / rn**2
                    terms.append(c * (np.eye(3) - 3.0 * rr))
                    scale = scale + abs(c) * (np.eye(3) + 3.0 * np.abs(rr))
                ref = np.array([[math.fsum(t[a, b] for t in terms) for b in range(3)]
                                for a in range(3)])
                assert np.all(np.abs(jac[k, i] - ref) <= 8.0 * EPS * scale + 1e-300)
                assert abs(np.trace(jac[k, i])) <= 8.0 * EPS * np.trace(scale)

    def test_gradient_of_the_square_is_twice_j_f(self):
        rng = np.random.default_rng(5)
        cfg = random_config(rng, 4)
        pts = rng.uniform(-3.0, 3.0, size=(200, 3))
        offsets = _coulomb_offsets(cfg, pts)[:2]
        f, jac = _coulomb_jacobian(cfg.qs, *offsets)
        f1, grad = _coulomb_gradient(cfg.qs, *offsets)
        np.testing.assert_array_equal(f, f1)
        twice = 2.0 * (jac @ f[:, :, None])[:, :, 0]
        scale = np.max(np.abs(grad), axis=1, keepdims=True)
        assert np.all(np.abs(twice - grad) <= 1e-13 * scale)


class TestStackedWeights:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_rows_bit_equal_to_separate_calls(self, n):
        rng = np.random.default_rng(200 + n)
        cfg = random_config(rng, n)
        pts = rng.uniform(-3.0, 3.0, size=(500, 3))
        weights = np.stack((cfg.qs, cfg.gs, rng.uniform(-2.0, 2.0, n)))
        fields = coulomb_rows(cfg, weights, pts)
        offsets = _coulomb_offsets(cfg, pts)[:2]
        f, grad = _coulomb_gradient(weights, *offsets)
        assert fields.shape == f.shape == grad.shape == (3, 500, 3)
        for k, w in enumerate(weights):
            np.testing.assert_array_equal(fields[k], coulomb_rows(cfg, w, pts))
            f1, grad1 = _coulomb_gradient(w, *offsets)
            np.testing.assert_array_equal(f[k], f1)
            np.testing.assert_array_equal(grad[k], grad1)
        # a single point is the one-row batch
        np.testing.assert_array_equal(coulomb_rows(cfg, weights, pts[7:8])[:, 0], fields[:, 7])

    @pytest.mark.parametrize("n", range(1, 9))
    def test_centre_sums_are_the_einsums_bits(self, n):
        # the centre-by-centre sums against numpy's einsum over the centres,
        # signed zeros included: points on the axes of mirror pairs and
        # centres of zero weight give zero terms of either sign
        rng = np.random.default_rng(300 + n)
        cfg = random_config(rng, n)
        pos = cfg.positions
        pts = np.concatenate((rng.uniform(-3.0, 3.0, size=(400, 3)), 0.5 * (pos + pos[::-1])[:n // 2],
                              np.where(rng.random((40, 3)) < 0.5, 0.0, rng.normal(size=(40, 3)))))
        weights = np.stack((cfg.qs, cfg.gs, np.where(rng.random(n) < 0.3, 0.0, -cfg.qs)))
        rs, dist, _ = _coulomb_offsets(cfg, pts)
        for w in (weights, weights[0], weights[2]):
            f, grad = _coulomb_gradient(w, rs, dist)
            ref = np.einsum("...j,ij,ijk->...ik", w / FOUR_PI, dist**-3, rs)
            c = w[..., None, :] / FOUR_PI * dist**-3
            proj = c * np.einsum("ijk,...ik->...ij", rs, ref) / dist**2
            ref_grad = 2.0 * np.sum(c, axis=-1)[..., None] * ref - 6.0 * np.einsum(
                "...ij,ijk->...ik", proj, rs)
            for got, want in ((coulomb_rows(cfg, w, pts), ref), (f, ref), (grad, ref_grad)):
                np.testing.assert_array_equal(got, want)
                np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


class TestExclusion:
    def test_singular_point_raises(self):
        cfg = two_center()
        with pytest.raises(SingularPoint):
            checked_d(cfg, np.array([[0.0, 0.0, 1e-12]]))
        with pytest.raises(SingularPoint):
            checked_d(cfg, np.array([[1.0, 1e-11, 0.0]]))

    def test_batched_singular_point_names_point_and_charge(self):
        cfg = two_center()
        pts = np.array([[0.5, 0.5, 0.0], [1.0, 2e-10, 0.0], [0.0, 1e-10, 0.0]])
        with pytest.raises(SingularPoint) as info:
            checked_d(cfg, pts)
        assert str(info.value) == (f"point {pts[1].tolist()} within exclusion radius "
                                   f"{cfg.exclusion_radius!r} of charge 1")
        with pytest.raises(SingularPoint, match="charge 0"):
            checked_d(cfg, pts[2][None, :])
        # the offsets only mark the points inside a ball
        inside = _coulomb_offsets(cfg, pts)[2]
        np.testing.assert_array_equal(inside, [[False, False], [False, True], [True, False]])

    def test_default_exclusion_radius(self):
        # max(1e-9 max(diameter, 1), 1e-8 cell_scale), with the bits of
        # 1e-8 (0.45 min_separation) where the cell term wins
        assert two_center().exclusion_radius == 1e-8 * (0.45 * 1.0)
        single = ChargeConfig.build([((0, 0, 0), 1.0, 0.0)])
        assert single.exclusion_radius == 1e-8
        wide = ChargeConfig.build([((0, 0, 0), 1.0, 0.0), ((0, 5.0, 0), 1.0, 0.0)])
        assert wide.exclusion_radius == 1e-8 * (0.45 * 5.0)
        spread = ChargeConfig.build([((0, 0, 0), 1.0, 0.0), ((1, 0, 0), -1.0, 0.0),
                                     ((10, 0, 0), 1.0, 0.0)])
        assert spread.exclusion_radius == 1e-9 * 10.0

    def test_single_charge_geometry(self):
        cfg = ChargeConfig.build([((3, -1, 2), 1.0, 0.0)])
        assert (cfg.cell_scale, _far_radius(cfg), cfg.exclusion_radius) == (1.0, 10.0, 1e-8)

    def test_exclusion_radius_below_cell_scale(self):
        pair = [((0, 0, 0), 1.0, 0.0), ((1, 0, 0), -1.0, 0.0)]
        assert ChargeConfig.build(pair, exclusion_radius=0.44).exclusion_radius == 0.44
        for radius in (0.45, 0.6):
            with pytest.raises(ValueError, match="below the cell scale"):
                ChargeConfig.build(pair, exclusion_radius=radius)
        with pytest.raises(ValueError, match="below the cell scale"):
            ChargeConfig.build([((0, 0, 0), 1.0, 0.0)], exclusion_radius=1.0)
        # a pair 1e-9 apart in a unit-wide layout: the default ball, 1e-9
        # of the diameter, would hold the pair's cells
        with pytest.raises(ValueError, match="below the cell scale"):
            ChargeConfig.build(pair + [((1e-9, 0, 0), 1.0, 0.0)])

    def test_explicit_exclusion(self):
        cfg = ChargeConfig.build([((0, 0, 0), 1.0, 0.0)], exclusion_radius=0.1)
        with pytest.raises(SingularPoint):
            checked_d(cfg, np.array([[0.05, 0, 0]]))
        checked_d(cfg, np.array([[0.2, 0, 0]]))  # fine

    def test_exclusion_boundary_is_regular_everywhere(self):
        # strictly inside the ball is singular, the sphere itself is not, in
        # the Coulomb kernel, the density, the inverted fields and the
        # currents alike
        cfg = ChargeConfig.build([((0, 0, 0), 1.0, 0.0), ((2, 0, 0), -1.0, 0.0)],
                                 exclusion_radius=0.5)
        params = ModelParams.classical(beta=1.0)
        on, inside = np.array([0.5, 0.0, 0.0]), np.array([0.4999, 0.0, 0.0])
        for fn in (lambda x: checked_d(cfg, x[None, :]),
                   lambda x: hamiltonian_on_points(params, cfg, x),
                   eh_field(params, cfg),
                   lambda x: jm_classical_jacobi_term(cfg, 1.0, x)):
            assert np.all(np.isfinite(fn(on)))
            with pytest.raises(SingularPoint):
                fn(inside)
        rows = current_rows(params, cfg, [on, inside])
        assert rows.code[0] == 0 and np.all(np.isfinite(rows.j_m[0]))
        assert isinstance(rows.errors[rows.code[1] - 1], SingularPoint)


class TestFarField:
    def test_monopole_ratio_along_rays(self):
        cfg = ChargeConfig.build(
            [((0.2, 0, 0), 1.0, 0.0), ((-0.1, 0.3, 0), 2.0, 0.0), ((0, 0, -0.25), -0.5, 0.0)]
        )
        total = math.fsum(cfg.qs)
        ray = np.array([0.48, 0.6, 0.64])  # unit-ish generic direction
        ray = ray / np.linalg.norm(ray)
        errs = []
        for r in (1e2, 1e3):
            d = coulomb_rows(cfg, cfg.qs, r * ray[None, :])[0]
            ratio = np.linalg.norm(d) * r * r * FOUR_PI / abs(total)
            errs.append(abs(ratio - 1.0))
        assert errs[0] <= 1e-2
        assert errs[1] <= 1e-3
        assert errs[1] < errs[0]  # dipole correction decays like 1/r


class TestValidation:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfig.build([((0, 0, 0), 1.0, 0.0), ((0, 0, 0), -1.0, 0.0)])

    def test_zero_charge_rejected(self):
        with pytest.raises(ValueError):
            PointCharge((0, 0, 0), 0.0, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ChargeConfig.build([])

    def test_totals(self):
        cfg = two_center()
        assert math.fsum(cfg.qs) == pytest.approx(-1.0)
        assert math.fsum(cfg.gs) == pytest.approx(0.75)
        assert len(cfg) == 2

    def test_derived_values_are_computed_once_and_read_only(self):
        # the arrays and pair distances of a configuration, bit for bit those
        # of the per-charge and per-pair expressions, fixed when it is built
        rng = np.random.default_rng(3)
        for n in (1, 2, 7):
            cfg = random_config(rng, n)
            pos = np.array([c.position for c in cfg.charges])
            dists = [float(np.linalg.norm(pos[i] - pos[j]))
                     for i in range(n) for j in range(i + 1, n)]
            assert np.array_equal(cfg.positions, pos)
            assert np.array_equal(cfg.qs, [c.q for c in cfg.charges])
            assert np.array_equal(cfg.gs, [c.g for c in cfg.charges])
            assert cfg.diameter == max(dists, default=0.0)
            assert cfg.min_separation == min(dists, default=math.inf)
            assert cfg.positions is cfg.positions
            for arr in (cfg.positions, cfg.qs, cfg.gs):
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_pair_distances_match_the_norm_loop(self, offset):
        # the per-pair np.linalg.norm loop is the oracle, bit for bit
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 10))
            pos = offset + rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3.0, 3.0)
            loop = [float(np.linalg.norm(pos[i] - pos[j]))
                    for i in range(n) for j in range(i + 1, n)]
            assert np.array_equal(_pair_distances(pos), loop)

    def test_duplicate_position_names_the_first_pair(self):
        entries = [((0, 0, 0), 1.0, 0.0), ((1, 0, 0), 1.0, 0.0), ((1, 0, 0), 2.0, 0.0),
                   ((-0.0, 0, 0), -1.0, 0.0)]
        with pytest.raises(ValueError, match="charges 0 and 3 share a position"):
            ChargeConfig.build(entries)
