"""Geometry: ULA construction, subarray partition, user drop, visibility regions."""

import numpy as np
import pytest

from xlmimo import geometry
from xlmimo.errors import ConfigurationError, GeometryInfeasibleError
from xlmimo.geometry import build_geometry, drop_users, sample_vr
from xlmimo.seeding import seed_stream


class TestBuildGeometry:
    def test_indivisible_partition_rejected(self):
        with pytest.raises(ConfigurationError, match="not divisible"):
            build_geometry(100)

    def test_reference_array(self):
        geo = build_geometry(99)
        assert geo.positions[1] - geo.positions[0] == pytest.approx(0.23077,
                                                                    rel=1e-4)
        assert geo.N == pytest.approx(22.846, rel=1e-4)
        assert geo.M_s == 33

    def test_small_array_positions_and_partition(self, monkeypatch):
        # The carrier and spacing are read when the array is built.
        monkeypatch.setattr(geometry, "CARRIER_HZ", 3.0e9)
        monkeypatch.setattr(geometry, "SPACING_WAVELENGTHS", 0.5)
        geo = build_geometry(6)
        np.testing.assert_allclose(geo.positions,
                                   [0.0, 0.05, 0.10, 0.15, 0.20, 0.25])
        assert geo.N == pytest.approx(0.3)
        np.testing.assert_array_equal(geo.subarray_of, [0, 0, 1, 1, 2, 2])

    def test_positions_uniformly_spaced(self):
        geo = build_geometry(99)
        gaps = np.diff(geo.positions)
        assert np.all(gaps > 0)
        np.testing.assert_allclose(gaps, gaps[0], rtol=1e-12)
        assert geo.N == pytest.approx(geo.M * gaps[0])

    def test_partition_is_disjoint_cover(self):
        geo = build_geometry(12)
        idx = np.concatenate([np.nonzero(geo.subarray_of == s)[0]
                              for s in range(3)])
        np.testing.assert_array_equal(np.sort(idx), np.arange(12))

    @pytest.mark.parametrize("bad", [dict(M=0), dict(M=-3)])
    def test_invalid_inputs(self, bad):
        with pytest.raises(ConfigurationError):
            build_geometry(**bad)


def _positions(geo, distances):
    """(K, 2) user positions recovered from the distances to the first and
    the last antenna, both on the x axis."""
    a = geo.positions[-1]
    d0, d1 = distances[:, 0], distances[:, -1]
    x = (d0 ** 2 - d1 ** 2 + a ** 2) / (2.0 * a)
    return np.stack([x, np.sqrt(np.maximum(d0 ** 2 - x ** 2, 0.0))], axis=1)


def _interval_masks(geo, center, length):
    """The antennas within each region [center -+ length / 2], clipped to
    the array."""
    lo = np.maximum(0.0, center - length / 2.0)[..., None]
    hi = np.minimum(geo.N, center + length / 2.0)[..., None]
    return (geo.positions >= lo) & (geo.positions <= hi)


def _is_interval(masks):
    """Whether each mask covers one nonempty run of adjacent antennas."""
    M = masks.shape[-1]
    first = masks.argmax(axis=-1)
    last = M - 1 - masks[..., ::-1].argmax(axis=-1)
    return masks.any(axis=-1) & (last - first + 1 == masks.sum(axis=-1))


def _small_cell(monkeypatch):
    """Every point of a 10 m cell is within 12 m of some antenna."""
    monkeypatch.setattr(geometry, "CELL_SIDE", 10.0)
    monkeypatch.setattr(geometry, "MIN_DIST", 12.0)


class TestDropUsers:
    def setup_method(self):
        self.geo = build_geometry(99)

    def test_min_distance_respected(self):
        distances = drop_users(seed_stream(1, 0), 8, self.geo)
        assert distances.shape == (8, self.geo.M)
        assert distances.min() >= geometry.MIN_DIST
        # Each row is the distances of one point of the cell to every antenna.
        p = _positions(self.geo, distances)
        assert ((p >= 0.0) & (p <= geometry.CELL_SIDE)).all()
        d = np.hypot(p[:, :1] - self.geo.positions, p[:, 1:])
        np.testing.assert_allclose(distances, d, rtol=1e-9)

    def test_same_seed_identical(self):
        a = drop_users(seed_stream(7, 3), 32, self.geo)
        b = drop_users(seed_stream(7, 3), 32, self.geo)
        np.testing.assert_array_equal(a, b)

    def test_infeasible_cell_raises(self, monkeypatch):
        _small_cell(monkeypatch)
        monkeypatch.setattr(geometry, "MAX_RETRIES", 200)
        with pytest.raises(GeometryInfeasibleError):
            drop_users(seed_stream(0, 0), 2, self.geo)

    def test_indivisible_users_rejected(self):
        with pytest.raises(ConfigurationError):
            drop_users(seed_stream(0, 0), 31, self.geo)


class TestSampleVr:
    def setup_method(self):
        self.geo = build_geometry(99)

    def _any(self, n):
        """`n` mask rows that each accept every antenna."""
        return np.ones((n, self.geo.M), dtype=bool)

    def test_full_length_region_covers_array(self):
        # length ~ 10N with tiny spread: every antenna visible
        masks = sample_vr(seed_stream(0, 0), self.geo, mu_l=10 * self.geo.N,
                          sigma_l=0.01, required=self._any(1))
        assert masks.all()

    def _replayed_lengths(self, seed, n, mu_l):
        """Sample n regions and check them against a replay of their stream;
        returns the replayed lengths.

        Regions about ten spacings long always reach an antenna, so every
        row keeps its first draw: uniform centers, then log-normal lengths
        with log-mean log(mu_l) - sigma^2 / 2."""
        sigma_l = 0.1
        masks = sample_vr(seed_stream(seed, 0), self.geo, mu_l, sigma_l,
                          required=self._any(n))
        rng = seed_stream(seed, 0)
        center = rng.uniform(0.0, self.geo.N, size=n)
        length = rng.lognormal(np.log(mu_l) - 0.5 * sigma_l ** 2, sigma_l,
                               size=n)
        np.testing.assert_array_equal(
            masks, _interval_masks(self.geo, center, length))
        assert _is_interval(masks).all()
        return length

    def test_mask_matches_bruteforce_interval(self):
        self._replayed_lengths(3, 200, 0.1 * self.geo.N)

    def test_linear_mean_interpretation(self):
        mu = 0.1 * self.geo.N
        lengths = self._replayed_lengths(5, 5000, mu)
        assert np.mean(lengths) == pytest.approx(mu, rel=0.05)

    def test_required_mask_honored(self):
        required = np.tile(self.geo.subarray_of == 2, (100, 1))
        masks = sample_vr(seed_stream(9, 0), self.geo, mu_l=1.0, sigma_l=0.3,
                          required=required)
        assert (masks & required).any(axis=-1).all()

    def test_empty_required_mask_rejected(self):
        required = self._any(2)
        required[1] = False
        with pytest.raises(ConfigurationError):
            sample_vr(seed_stream(0, 0), self.geo, 0.5, 0.1, required=required)

    def test_same_seed_identical(self):
        a = sample_vr(seed_stream(11, 4), self.geo, 0.5, 0.1, self._any(4))
        b = sample_vr(seed_stream(11, 4), self.geo, 0.5, 0.1, self._any(4))
        np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            sample_vr(seed_stream(0, 0), self.geo, 0.5, 0.0, self._any(1))
        with pytest.raises(ConfigurationError):
            sample_vr(seed_stream(0, 0), self.geo, -1.0, 0.1, self._any(1))


def _first_accepted_vr(rng, geo, mu_l, sigma_l, required, block=256):
    """Scalar reference: per region, the first accepted of i.i.d. candidates."""
    mu = np.log(mu_l) - 0.5 * sigma_l ** 2
    while True:
        c = rng.uniform(0.0, geo.N, size=block)
        ln = rng.lognormal(mu, sigma_l, size=block)
        vis = _interval_masks(geo, c, ln)
        ok = np.flatnonzero((vis & required).any(axis=1))
        if ok.size:
            return c[ok[0]], ln[ok[0]]


def _within_4se(a, b):
    se = np.hypot(np.std(a, ddof=1) / np.sqrt(len(a)),
                  np.std(b, ddof=1) / np.sqrt(len(b)))
    return abs(np.mean(a) - np.mean(b)) <= 4.0 * se


class TestVectorizedSampling:
    """All users of a trial drawn at once: one candidate per pending user
    and round, each keeping its first accepted one."""

    def setup_method(self):
        self.geo = build_geometry(99)

    def test_vr_law_matches_scalar_first_accepted(self):
        # Only the last three antennas count: about one candidate in ten is
        # accepted.
        required = np.zeros(self.geo.M, dtype=bool)
        required[-3:] = True
        n, mu_l = 3000, 0.1 * self.geo.N
        masks = sample_vr(seed_stream(21, 0), self.geo, mu_l, 0.5,
                          required=np.tile(required, (n, 1)))
        rng = seed_stream(22, 0)
        ref = np.array([_first_accepted_vr(rng, self.geo, mu_l, 0.5, required)
                        for _ in range(n)])
        ref_masks = _interval_masks(self.geo, ref[:, 0], ref[:, 1])
        assert masks.shape == (n, self.geo.M)
        # Per-antenna coverage and covered count follow the first-accepted
        # law, which favours long regions; redrawing only the center would
        # cover about 8 antennas against 9.4.
        for j in range(self.geo.M):
            assert _within_4se(masks[:, j], ref_masks[:, j]), j
        assert _within_4se(masks.sum(axis=1), ref_masks.sum(axis=1))

    def test_drop_law_matches_scalar_first_accepted(self, monkeypatch):
        # A 60 m minimum distance rejects about half of the cell's points.
        cell, min_dist, K = geometry.CELL_SIDE, 60.0, 2000
        monkeypatch.setattr(geometry, "MIN_DIST", min_dist)
        distances = drop_users(seed_stream(23, 0), K, self.geo)
        assert distances.min() >= min_dist
        positions = _positions(self.geo, distances)
        rng, ref = seed_stream(24, 0), []
        while len(ref) < K:
            p = rng.uniform(0.0, cell, size=2)
            if np.hypot(p[0] - self.geo.positions, p[1]).min() >= min_dist:
                ref.append(p)
        ref = np.array(ref)
        for axis in (0, 1):
            assert _within_4se(positions[:, axis], ref[:, axis])

    def test_required_honoured_for_each_row(self):
        # Each row asks for one subarray only; a short region must reach it.
        rows = np.stack([self.geo.subarray_of == s for s in (0, 1, 2)] * 20)
        masks = sample_vr(seed_stream(25, 0), self.geo, 0.05 * self.geo.N,
                          0.3, required=rows.reshape(3, 20, self.geo.M))
        assert masks.shape == (3, 20, self.geo.M)
        assert (masks & rows.reshape(3, 20, -1)).any(axis=-1).all()
        assert _is_interval(masks).all()

    def test_vr_retries_exhausted_names_the_user(self, monkeypatch):
        # Regions about one antenna spacing long: a row that may use any
        # antenna is accepted at once, user 3 needs the last antenna of 999.
        geo = build_geometry(999)
        required = np.ones((6, geo.M), dtype=bool)
        required[3] = False
        required[3, -1] = True
        monkeypatch.setattr(geometry, "MAX_RETRIES", 5)
        with pytest.raises(GeometryInfeasibleError, match="for user 3 .* after 5 "):
            sample_vr(seed_stream(27, 0), geo,
                      1.01 * (geo.positions[1] - geo.positions[0]), 1e-3,
                      required=required)

    def test_drop_retries_exhausted_names_the_user(self, monkeypatch):
        _small_cell(monkeypatch)
        monkeypatch.setattr(geometry, "MAX_RETRIES", 50)
        with pytest.raises(GeometryInfeasibleError,
                           match="place user 0 .* after 50 "):
            drop_users(seed_stream(0, 0), 4, self.geo)
