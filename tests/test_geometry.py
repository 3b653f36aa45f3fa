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
        distances, = drop_users([seed_stream(1, 0)], 8, self.geo)
        assert distances.shape == (8, self.geo.M)
        assert distances.min() >= geometry.MIN_DIST
        # Each row is the distances of one point of the cell to every antenna.
        p = _positions(self.geo, distances)
        assert ((p >= 0.0) & (p <= geometry.CELL_SIDE)).all()
        d = np.hypot(p[:, :1] - self.geo.positions, p[:, 1:])
        np.testing.assert_allclose(distances, d, rtol=1e-9)

    def test_same_seed_identical(self):
        a = drop_users([seed_stream(7, 3)], 32, self.geo)
        b = drop_users([seed_stream(7, 3)], 32, self.geo)
        np.testing.assert_array_equal(a, b)

    def test_infeasible_cell_raises(self, monkeypatch):
        _small_cell(monkeypatch)
        monkeypatch.setattr(geometry, "MAX_RETRIES", 200)
        with pytest.raises(GeometryInfeasibleError):
            drop_users([seed_stream(0, 0)], 2, self.geo)

    def test_indivisible_users_rejected(self):
        with pytest.raises(ConfigurationError):
            drop_users([seed_stream(0, 0)], 31, self.geo)


class TestSampleVr:
    def setup_method(self):
        self.geo = build_geometry(99)

    def _any(self, n):
        """`n` mask rows that each accept every antenna."""
        return np.ones((n, self.geo.M), dtype=bool)

    def test_full_length_region_covers_array(self, monkeypatch):
        # length ~ 10N with tiny spread: every antenna visible
        monkeypatch.setattr(geometry, "VR_SIGMA", 0.01)
        masks = sample_vr([seed_stream(0, 0)], self.geo, mu_l=10 * self.geo.N,
                          required=self._any(1))[0]
        assert masks.all()

    def _replayed_lengths(self, seed, n, mu_l):
        """Sample n regions and check them against a replay of their stream;
        returns the replayed lengths.

        Regions about ten spacings long always reach an antenna, so every
        row keeps its first draw: uniform centers, then log-normal lengths
        with log-mean log(mu_l) - sigma^2 / 2."""
        sigma_l = geometry.VR_SIGMA
        masks, = sample_vr([seed_stream(seed, 0)], self.geo, mu_l,
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

    def test_required_mask_honored(self, monkeypatch):
        monkeypatch.setattr(geometry, "VR_SIGMA", 0.3)
        required = np.tile(self.geo.subarray_of == 2, (100, 1))
        masks, = sample_vr([seed_stream(9, 0)], self.geo, mu_l=1.0,
                           required=required)
        assert (masks & required).any(axis=-1).all()

    def test_empty_required_mask_rejected(self):
        required = self._any(2)
        required[1] = False
        with pytest.raises(ConfigurationError):
            sample_vr([seed_stream(0, 0)], self.geo, 0.5, required=required)

    @pytest.mark.parametrize("shape", [(99,), (2, 3, 99), (2, 98)])
    def test_required_mask_must_be_rows_of_m(self, shape):
        with pytest.raises(ConfigurationError, match=r"not \(rows, M=99\)"):
            sample_vr([seed_stream(0, 0)], self.geo, 0.5,
                      required=np.ones(shape, dtype=bool))

    def test_same_seed_identical(self):
        a = sample_vr([seed_stream(11, 4)], self.geo, 0.5, self._any(4))
        b = sample_vr([seed_stream(11, 4)], self.geo, 0.5, self._any(4))
        np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            sample_vr([seed_stream(0, 0)], self.geo, -1.0, self._any(1))


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

    def test_vr_law_matches_scalar_first_accepted(self, monkeypatch):
        # Only the last three antennas count: about one candidate in ten is
        # accepted.
        monkeypatch.setattr(geometry, "VR_SIGMA", 0.5)
        required = np.zeros(self.geo.M, dtype=bool)
        required[-3:] = True
        n, mu_l = 3000, 0.1 * self.geo.N
        masks, = sample_vr([seed_stream(21, 0)], self.geo, mu_l,
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
        distances, = drop_users([seed_stream(23, 0)], K, self.geo)
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

    def test_required_honoured_for_each_row(self, monkeypatch):
        # Each row asks for one subarray only; a short region must reach it.
        monkeypatch.setattr(geometry, "VR_SIGMA", 0.3)
        rows = np.stack([self.geo.subarray_of == s for s in (0, 1, 2)] * 20)
        masks, = sample_vr([seed_stream(25, 0)], self.geo, 0.05 * self.geo.N,
                           required=rows)
        assert masks.shape == (60, self.geo.M)
        assert (masks & rows).any(axis=-1).all()
        assert _is_interval(masks).all()

    def test_batch_draws_each_trial_from_its_own_stream(self, monkeypatch):
        # Pending counts differ between trials from the first round on:
        # about half the cell's points and one region in ten are rejected.
        monkeypatch.setattr(geometry, "MIN_DIST", 60.0)
        monkeypatch.setattr(geometry, "VR_SIGMA", 0.5)
        required = np.zeros((8, self.geo.M), dtype=bool)
        required[:, -3:] = True
        mu_l = 0.1 * self.geo.N
        rngs = [seed_stream(26, t) for t in range(4)]
        distances = drop_users(rngs, 8, self.geo)
        masks = sample_vr(rngs, self.geo, mu_l, required)
        assert masks.shape == (4, 8, self.geo.M)
        for t, rng in enumerate(rngs):
            alone = seed_stream(26, t)
            np.testing.assert_array_equal(
                distances[t], drop_users([alone], 8, self.geo)[0])
            np.testing.assert_array_equal(
                masks[t], sample_vr([alone], self.geo, mu_l, required)[0])
            assert rng.bit_generator.state == alone.bit_generator.state

    def test_vr_retries_exhausted_names_the_user(self, monkeypatch):
        # Regions about one antenna spacing long: a row that may use any
        # antenna is accepted at once, user 3 needs the last antenna of 999.
        geo = build_geometry(999)
        required = np.ones((6, geo.M), dtype=bool)
        required[3] = False
        required[3, -1] = True
        monkeypatch.setattr(geometry, "MAX_RETRIES", 5)
        monkeypatch.setattr(geometry, "VR_SIGMA", 1e-3)
        with pytest.raises(GeometryInfeasibleError, match="for user 3 .* after 5 "):
            sample_vr([seed_stream(27, 0)], geo,
                      1.01 * (geo.positions[1] - geo.positions[0]),
                      required=required)

    def test_drop_retries_exhausted_names_the_user(self, monkeypatch):
        _small_cell(monkeypatch)
        monkeypatch.setattr(geometry, "MAX_RETRIES", 50)
        with pytest.raises(GeometryInfeasibleError,
                           match="place user 0 .* after 50 "):
            drop_users([seed_stream(0, 0)], 4, self.geo)


class TestRejectDriver:
    """`geometry._reject` with stand-in generators (the trial indices), a
    proposal that records its calls and a judge that follows a script."""

    # Per round, the (trial, row) candidates the judge accepts; trial 0
    # finishes in round 0, trial 1 in round 2 and trial 2 in round 3.
    ACCEPT = [{(0, 0), (0, 1), (0, 2), (1, 1)}, {(1, 0)},
              {(1, 2), (2, 0), (2, 1)}, {(2, 2)}]

    def _run(self, monkeypatch, retries):
        """Run three trials of three rows for `retries` rounds; returns the
        output (or the exception), the proposal calls and the judged rows.

        A candidate's value is 10 * round + trial."""
        monkeypatch.setattr(geometry, "MAX_RETRIES", retries)
        calls, judged = [], []

        def propose(trial, n):
            calls.append((len(judged), trial, n))
            return np.full(n, 10 * len(judged) + trial)

        def judge(candidates, row):
            accept = self.ACCEPT[len(judged)]
            judged.append(row.tolist())
            trial = candidates % 10
            return candidates, np.array([(t, r) in accept
                                         for t, r in zip(trial, row)])

        try:
            out = geometry._reject(
                [0, 1, 2], 3, propose, judge,
                lambda trial, row: f"trial {trial} row {row}")
        except GeometryInfeasibleError as exc:
            out = exc
        return out, calls, judged

    def test_proposes_for_pending_trials_in_order(self, monkeypatch):
        _, calls, judged = self._run(monkeypatch, 4)
        assert calls == [(0, 0, 3), (0, 1, 3), (0, 2, 3),
                         (1, 1, 2), (1, 2, 3),
                         (2, 1, 1), (2, 2, 3),
                         (3, 2, 1)]
        assert judged == [[0, 1, 2] * 3, [0, 2, 0, 1, 2], [2, 0, 1, 2], [2]]

    def test_row_keeps_its_first_accepted_candidate(self, monkeypatch):
        out, _, _ = self._run(monkeypatch, 4)
        np.testing.assert_array_equal(out, [[0, 0, 0], [11, 1, 21],
                                            [22, 22, 32]])

    def test_exhaustion_names_the_first_pending_row(self, monkeypatch):
        # After two rounds (1, 2) and all of trial 2 are still pending.
        out, calls, _ = self._run(monkeypatch, 2)
        assert isinstance(out, GeometryInfeasibleError)
        assert str(out) == "trial 1 row 2"
        assert {c[0] for c in calls} == {0, 1}
