"""Configuration parsing, seeding, experiment orchestration, and the CLI."""

import gc
import json

import numpy as np
import pytest

from xlmimo import (channel, cli, config, experiments, flops, geometry,
                    metrics, precoder)
from xlmimo.config import (ExperimentConfig, apply_overrides, config_to_dict,
                           parse_config)
from xlmimo.errors import ConfigurationError
from xlmimo.geometry import build_geometry
from xlmimo.experiments import TRUNCATION_MARKER, run_experiment
from xlmimo.seeding import seed_stream


class TestDefaults:
    def test_empty_document_yields_reference_defaults(self):
        cfg = parse_config("")
        assert cfg.geometry.M == 99
        assert cfg.users.K == 32
        assert cfg.channel.vr_mu_frac == 0.1
        assert cfg.solver.T == 5

    def test_reference_model_constants(self):
        assert (geometry.CARRIER_HZ, geometry.SPACING_WAVELENGTHS) == (2.6e9, 2.0)
        assert (geometry.CELL_SIDE, geometry.MIN_DIST) == (100.0, 30.0)
        assert (channel.OMEGA, channel.NU) == (4.0, 3.0)
        assert (channel.RHO, geometry.VR_SIGMA) == (0.5, 0.1)
        assert config.SIGMA2_DBM == -50.0
        assert flops.K_GRID == (5, 10, 15, 20, 25, 30)

    def test_aperture_resolves_to_99_antennas(self):
        array = build_geometry(ExperimentConfig().geometry.M)
        assert array.M == 99 and array.M_s == 33
        assert array.N == pytest.approx(22.8, abs=0.1)

    def test_xi_snr_product(self):
        cfg = ExperimentConfig()
        assert cfg.power.xi * 10 ** (cfg.power.snr_db / 10) == pytest.approx(1.0)
        assert cfg.power.sigma2_watts == pytest.approx(1e-8)


def _config_with(section, key, raw, form):
    """The default config with one value set from a YAML file or by --set."""
    if form == "yaml":
        return parse_config(f"{section}:\n  {key}: {raw}\n")
    return apply_overrides(ExperimentConfig(), [f"{section}.{key}={raw}"])


class TestValidation:
    def test_zero_iterations_rejected(self):
        with pytest.raises(ConfigurationError, match="solver.T"):
            parse_config("solver:\n  T: 0\n")

    def test_indivisible_users_rejected(self):
        with pytest.raises(ConfigurationError, match="users.K=31"):
            parse_config("users:\n  K: 31\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="solver.momentum"):
            parse_config("solver:\n  momentum: 0.9\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("decoder:\n  kind: ml\n")

    def test_malformed_yaml_rejected(self):
        with pytest.raises(ConfigurationError, match="YAML"):
            parse_config("solver: [unclosed\n")

    def test_type_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            parse_config("users:\n  K: many\n")

    @pytest.mark.parametrize("item", ["run.trials=null", "power.snr_db=null",
                                      "geometry.M=null"])
    def test_null_for_required_field_rejected(self, item):
        with pytest.raises(ConfigurationError, match="got None"):
            apply_overrides(ExperimentConfig(), [item])

    # Removed fields are unknown keys, even set to their old default.
    @pytest.mark.parametrize("form", ["yaml", "set"])
    @pytest.mark.parametrize("section, key, value", [
        ("solver", "pcg_variant", "textbook"),
        ("channel", "vr_interpretation", "linear-mean"),
        ("geometry", "S", 3), ("users", "L", 2),
        ("channel", "gain_ref_m", 99), ("channel", "gain_exponent", 2.0),
        ("geometry", "N", 23.061),
        ("geometry", "carrier_hz", 2.6e9),
        ("geometry", "spacing_wavelengths", 2.0),
        ("users", "cell_side", 100.0), ("users", "min_dist", 30.0),
        ("channel", "omega", 4.0), ("channel", "nu", 3.0),
        ("solver", "omega", 1.0),
        ("power", "sigma2_dbm", -50.0),
        ("channel", "rho", 0.5), ("channel", "vr_sigma", 0.1),
        ("channel", "normalize_gain", "true"),
        ("run", "k_grid", "[5, 10, 15, 20, 25, 30]")])
    def test_removed_keys_rejected(self, section, key, value, form):
        with pytest.raises(ConfigurationError,
                           match=f"unknown config key {section}.{key}"):
            if form == "yaml":
                parse_config(f"{section}:\n  {key}: {value}\n")
            else:
                apply_overrides(ExperimentConfig(),
                                [f"{section}.{key}={value}"])

    def test_m_grid_must_match_subarrays(self):
        with pytest.raises(ConfigurationError):
            parse_config("run:\n  m_grid: [100]\n")

    def test_geometry_m_must_match_subarrays(self):
        with pytest.raises(ConfigurationError, match="geometry.M=100"):
            parse_config("geometry:\n  M: 100\n")

    # The flops table's grid is the constant flops.K_GRID, so a run.k_grid
    # entry of any form is an unknown key.
    @pytest.mark.parametrize("item", [
        "run.m_grid=[99.0]", "run.m_grid=[true]", "run.m_grid=[0]",
        "run.k_grid=[5.5]", "run.k_grid=[0]", "run.snr_grid_db=[a]",
        "run.snr_grid_db=[false]", "run.methods=[1]"])
    def test_bad_list_entry_rejected(self, item):
        with pytest.raises(ConfigurationError, match=item.split("=")[0]):
            apply_overrides(ExperimentConfig(), [item])

    # The SNR bound is -10 log10(eps (M_max/99)^2) dB, M_max the largest of
    # geometry.M and run.m_grid: 156.5 dB at 99 and 148.0 dB at 264.
    @pytest.mark.parametrize("m_grid, top", [("[99]", 156.5),
                                             ("[99, 264]", 148.0)])
    def test_snr_bound_follows_largest_array(self, m_grid, top):
        apply_overrides(ExperimentConfig(),
                        [f"run.m_grid={m_grid}", f"power.snr_db={top}"])
        with pytest.raises(ConfigurationError, match=rf"{top}\] dB at M="):
            apply_overrides(ExperimentConfig(),
                            [f"run.m_grid={m_grid}", f"power.snr_db={top + 0.1}"])

    # Every SNR grid entry is bounded at geometry.M, the one array BER runs.
    @pytest.mark.parametrize("M, top", [(99, 156.5), (264, 148.0)])
    def test_snr_grid_bound_follows_geometry_m(self, M, top):
        base = [f"geometry.M={M}", "run.m_grid=[99, 264]"]
        apply_overrides(ExperimentConfig(),
                        base + [f"run.snr_grid_db=[0.0, {top}]"])
        with pytest.raises(ConfigurationError,
                           match=rf"snr_grid_db entry .*{top}\] dB at M={M}"):
            apply_overrides(ExperimentConfig(),
                            base + [f"run.snr_grid_db=[0.0, {top + 0.1}]"])

    # The VR length bound is tightest at the smallest array: at M = 99 it
    # accepts 3e-5 and rejects 1e-5 (0.044 unplaced users per draw).
    def test_vr_bound_follows_smallest_array(self):
        apply_overrides(ExperimentConfig(), ["channel.vr_mu_frac=1e-4"])
        apply_overrides(ExperimentConfig(), ["channel.vr_mu_frac=3e-5"])
        with pytest.raises(ConfigurationError, match="geometry.M=99"):
            apply_overrides(ExperimentConfig(), ["channel.vr_mu_frac=1e-5"])
        with pytest.raises(ConfigurationError, match="run.m_grid entry=9"):
            apply_overrides(ExperimentConfig(),
                            ["channel.vr_mu_frac=1e-4", "run.m_grid=[9, 99]"])

    @pytest.mark.parametrize("item", ["run.trials=true", "power.snr_db=true"])
    def test_bool_for_number_rejected(self, item):
        with pytest.raises(ConfigurationError, match="expected number"):
            apply_overrides(ExperimentConfig(), [item])

    # YAML 1.1 reads a number with an exponent but no dot (or no exponent
    # sign) as a string; float fields take it in a file and in --set alike.
    @pytest.mark.parametrize("form", ["yaml", "set"])
    @pytest.mark.parametrize("section, key, raw, value", [
        ("power", "snr_db", "3e1", 30.0),
        ("power", "snr_db", "5e-1", 0.5),
        ("channel", "vr_mu_frac", "2e-1", 0.2),
        ("power", "snr_db", "-2.5E1", -25.0),
        ("power", "snr_db", "1.0e1", 10.0)])
    def test_float_with_exponent_accepted(self, section, key, raw, value, form):
        cfg = _config_with(section, key, raw, form)
        assert getattr(getattr(cfg, section), key) == value

    @pytest.mark.parametrize("form", ["yaml", "set"])
    @pytest.mark.parametrize("section, key, raw", [
        ("run", "trials", "1e3"),            # a float for an int field
        ("power", "snr_db", "3e"),           # no exponent digits
        ("channel", "vr_mu_frac", "e9"),     # no mantissa
        ("power", "snr_db", "null"),
        ("channel", "vr_mu_frac", "yes")])
    def test_bad_number_forms_rejected(self, section, key, raw, form):
        with pytest.raises(ConfigurationError, match=f"{section}.{key}"):
            _config_with(section, key, raw, form)


class TestOverrides:
    def test_scalar_override(self):
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["power.snr_db=25.0", "run.trials=7"])
        assert cfg.power.snr_db == 25.0 and cfg.run.trials == 7

    def test_list_override(self):
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["run.m_grid=[33, 66]"])
        assert cfg.run.m_grid == [33, 66]

    def test_bad_format_rejected(self):
        with pytest.raises(ConfigurationError):
            apply_overrides(ExperimentConfig(), ["trials 7"])
        with pytest.raises(ConfigurationError):
            apply_overrides(ExperimentConfig(), ["run.trials.extra=7"])

    def test_round_trips_through_dict(self):
        cfg = ExperimentConfig()
        apply_overrides(cfg, ["run.trials=9"])
        assert config_to_dict(cfg)["run"]["trials"] == 9


class TestSeeding:
    def test_trials_get_distinct_streams(self):
        a = seed_stream(42, 0).standard_normal(8)
        b = seed_stream(42, 1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_same_inputs_identical_stream(self):
        np.testing.assert_array_equal(seed_stream(42, 7).standard_normal(64),
                                      seed_stream(42, 7).standard_normal(64))

    def test_keys_are_tuples_not_sums(self):
        # (tag, M, trial) keys: reordered or merged entries are other streams.
        draws = [seed_stream(0, *key).standard_normal(4)
                 for key in ((1, 99, 3), (1, 3, 99), (1, 102), (1, 99, 3, 0))]
        assert len({d.tobytes() for d in draws}) == len(draws)

    def test_master_seeds_do_not_collide(self):
        a = seed_stream(42, 0).standard_normal(10_000)
        b = seed_stream(43, 0).standard_normal(10_000)
        assert not np.any(np.isclose(a[:100], b[:100]))


def _fast_cfg(experiment):
    cfg = ExperimentConfig()
    apply_overrides(cfg, [
        f"run.experiment={experiment}", "geometry.M=9", "users.K=4",
        "run.trials=3", "run.m_grid=[9]", "run.bits_per_point=1024",
        "run.symbols_per_channel=32", "run.snr_grid_db=[10.0]",
        "channel.vr_mu_frac=3.0",
    ])
    return cfg


class TestRunExperiment:
    @pytest.mark.parametrize("experiment", ["flops", "convergence",
                                            "se_vs_m", "ber"])
    def test_csv_schema_and_manifest(self, experiment, tmp_path):
        out = tmp_path / f"{experiment}.csv"
        run_experiment(_fast_cfg(experiment), str(out))
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].split(",") == experiments.TABLES[experiment][0]
        assert len(lines) > 1
        manifest = json.loads((tmp_path / f"{experiment}.csv.manifest.json")
                              .read_text())
        assert manifest["seed"] == 0
        assert manifest["config"]["run"]["experiment"] == experiment
        assert "version" in manifest and "timestamp" in manifest
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "blas_builds",
                            "blas_threads", "cpu_count"}
        assert env["numpy"] == np.__version__
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas_builds"] == {
            "numpy": {"name": blas["name"], "version": blas["version"]}}
        assert set(env["blas_threads"]) == {
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}

    def test_unknown_experiment_rejected_before_any_csv(self, tmp_path):
        # The config takes any name; run_experiment checks it against TABLES.
        cfg = _fast_cfg("bogus")
        with pytest.raises(ConfigurationError, match="unknown experiment 'bogus'"):
            run_experiment(cfg, str(tmp_path / "out.csv"))
        assert list(tmp_path.iterdir()) == []

    def test_flops_csv_contains_pinned_value(self, tmp_path):
        out = tmp_path / "flops.csv"
        run_experiment(_fast_cfg("flops"), str(out))
        rows = [ln.split(",") for ln in out.read_text().splitlines()[1:]]
        jacpcg30 = [r for r in rows if r[0] == "jacpcg" and r[1] == "30"]
        assert jacpcg30 and jacpcg30[0][5] == "46530"

    def test_truncation_marker_on_failure(self, tmp_path, monkeypatch):
        def boom(cfg):
            yield ["gs", 1, 0.5, 1]
            raise RuntimeError("simulated failure")

        columns, _ = experiments.TABLES["convergence"]
        monkeypatch.setitem(experiments.TABLES, "convergence", (columns, boom))
        out = tmp_path / "convergence.csv"
        with pytest.raises(RuntimeError):
            run_experiment(_fast_cfg("convergence"), str(out))
        lines = out.read_text().splitlines()
        assert lines[-1].startswith(f"{TRUNCATION_MARKER},RuntimeError")


class TestCli:
    def test_flops_subcommand(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        rc = cli.main(["flops", "--out", str(out)])
        assert rc == 0
        assert str(out) in capsys.readouterr().out
        assert out.exists()

    def test_heap_is_frozen_once_per_process(self, tmp_path):
        # The heap at the start of a run is frozen, so the collection at
        # interpreter exit skips it; a second call in the same process
        # leaves the freeze as the first made it.
        gc.unfreeze()
        try:
            out = str(tmp_path / "flops.csv")
            assert cli.main(["flops", "--out", out]) == 0
            frozen = gc.get_freeze_count()
            assert frozen > 0
            assert cli.main(["flops", "--out", out]) == 0
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_error_is_machine_readable(self, capsys):
        rc = cli.main(["convergence", "--set", "solver.T=0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"

    # A diverging iteration stops the run instead of writing NaN rows: at
    # the default settings JOR's iterate overflows at t = 1598, and at
    # M = 66 with T = 1300 its precoder's tr(F^H F) overflows.
    @pytest.mark.parametrize("experiment, items", [
        ("convergence", ["run.t_max=3000", "run.trials=4"]),
        ("se_vs_m", ["geometry.M=66", "run.m_grid=[66]", "run.trials=1",
                     "run.methods=[jor]", "solver.T=1300"])])
    def test_diverging_iteration_truncates_the_run(self, experiment, items,
                                                   tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [experiment, "--out", str(out)]
        for item in items:
            argv += ["--set", item]
        assert cli.main(argv) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NonFiniteError"
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[-1].startswith(
            f"{TRUNCATION_MARKER},NonFiniteError")
        assert "nan" not in text.lower()

    def test_non_finite_direct_solve_truncates_the_run(self, tmp_path,
                                                      capsys, monkeypatch):
        # Solving systems of 1e-320 I overflows; the direct precoder stops
        # the run as a diverging iteration does.
        hpd = precoder.HpdSystem
        monkeypatch.setattr(
            precoder, "HpdSystem",
            lambda P, rhs: hpd(P=np.broadcast_to(1e-320 * np.eye(P.shape[-1]),
                                                 P.shape), rhs=rhs))
        out = tmp_path / "out.csv"
        argv = ["se_vs_m", "--out", str(out)]
        for item in ["run.methods=[direct]", "run.trials=2", "run.m_grid=[99]"]:
            argv += ["--set", item]
        assert cli.main(argv) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "NonFiniteError"
        assert out.read_text(encoding="utf-8").splitlines()[-1].startswith(
            f"{TRUNCATION_MARKER},NonFiniteError")

    @pytest.mark.parametrize("experiment, item", [
        ("se_vs_m", "run.m_grid=[99.0]"), ("ber", "run.snr_grid_db=[a]"),
        ("convergence", "power.snr_db=true"),
        ("convergence", "geometry.S=3"), ("se_vs_m", "users.L=2"),
        ("se_vs_m", "channel.gain_ref_m=99"),
        ("se_vs_m", "channel.gain_exponent=2"),
        ("convergence", "geometry.N=23"), ("convergence", "geometry.M=null"),
        ("se_vs_m", "channel.vr_mu_frac=0"),
        ("convergence", "run.methods=[direct]"),
        ("convergence", "geometry.M=100"),
        # Each grid or method entry is a CSV row key.
        ("se_vs_m", "run.methods=[cg, cg]"), ("se_vs_m", "run.m_grid=[9, 9]"),
        ("flops", "run.k_grid=[5, 5]"), ("ber", "run.snr_grid_db=[4.0, 4]"),
        # Every float is finite, and every SNR within +-300 dB.
        ("convergence", "power.snr_db=.nan"),
        ("ber", "run.snr_grid_db=[.nan]"), ("ber", "run.snr_grid_db=[-.inf]"),
        ("se_vs_m", "channel.vr_mu_frac=.inf"),
        ("convergence", "power.snr_db=4000"),
        ("convergence", "power.snr_db=-4000"),
        ("ber", "run.snr_grid_db=[0.0, 301]"),
        # Above -10 log10(eps (M_max/99)^2) dB (148 dB at M = 264), xi
        # rounds away on the Gram diagonal and the Cholesky factor breaks.
        ("se_vs_m", "power.snr_db=170"), ("se_vs_m", "power.snr_db=200"),
        ("ber", "run.snr_grid_db=[0.0, 180]"),
        # VRs this short reach no serving antenna in MAX_RETRIES rounds, for
        # some user of a run.
        ("convergence", "channel.vr_mu_frac=1e-9"),
        ("convergence", "channel.vr_mu_frac=1e-7"),
        ("convergence", "channel.vr_mu_frac=1e-6"),
        ("convergence", "channel.vr_mu_frac=1e-5")])
    def test_rejected_before_any_csv(self, experiment, item, tmp_path,
                                     capsys):
        out = tmp_path / "out.csv"
        rc = cli.main([experiment, "--out", str(out), "--set", item])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("experiment", ["se_vs_m", "ber"])
    def test_direct_alone_from_config_file(self, experiment, tmp_path):
        # the file leaves run.experiment at its default, convergence, which
        # needs an iterative method; the CLI's experiment needs none
        path = tmp_path / "direct.yaml"
        path.write_text(
            "geometry:\n  M: 9\nusers:\n  K: 4\nchannel:\n  vr_mu_frac: 3.0\n"
            "run:\n  methods: [direct]\n  trials: 2\n  m_grid: [9]\n"
            "  bits_per_point: 256\n  symbols_per_channel: 32\n"
            "  snr_grid_db: [10.0]\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        rc = cli.main([experiment, "--config", str(path), "--out", str(out)])
        assert rc == 0
        rows = out.read_text(encoding="utf-8").splitlines()[1:]
        assert rows and all(",direct," in f",{row}," for row in rows)

    def test_positional_experiment_overrides_config_file(self, tmp_path):
        path = tmp_path / "stale.yaml"
        path.write_text("run:\n  experiment: bogus\n  trials: 2\n"
                        "  m_grid: [99]\n", encoding="utf-8")
        out = tmp_path / "se.csv"
        rc = cli.main(["se_vs_m", "--config", str(path), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "se.csv.manifest.json").read_text())
        assert manifest["config"]["run"]["experiment"] == "se_vs_m"
        assert TRUNCATION_MARKER not in out.read_text()

    def test_config_file_is_validated_with_the_flags(self, tmp_path):
        # 160 dB lies above the bound at the default grid's M = 264, and
        # below it at the M = 9 the flags set.
        path = tmp_path / "hi.yaml"
        path.write_text("power: {snr_db: 160}\n", encoding="utf-8")
        items = ["geometry.M=9", "users.K=4", "run.m_grid=[9]",
                 "run.trials=2", "channel.vr_mu_frac=3"]
        argv = ["se_vs_m"] + [a for item in items for a in ("--set", item)]
        from_file, from_flags = tmp_path / "file.csv", tmp_path / "flags.csv"
        assert cli.main([*argv, "--config", str(path),
                         "--out", str(from_file)]) == 0
        assert cli.main([*argv, "--set", "power.snr_db=160",
                         "--out", str(from_flags)]) == 0
        assert from_file.read_bytes() == from_flags.read_bytes()

    def test_negative_seed_rejected_before_any_csv(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = cli.main(["convergence", "--out", str(out), "--seed", "-1",
                       "--set", "run.trials=2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "run.seed" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_flags_before_the_experiment(self, tmp_path):
        out = tmp_path / "flops.csv"
        assert cli.main(["--seed", "3", "flops", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "flops.csv.manifest.json").read_text())
        assert manifest["seed"] == 3
        assert manifest["config"]["run"]["experiment"] == "flops"

    def test_high_snr_below_the_bound_runs(self, tmp_path):
        out = tmp_path / "se.csv"
        rc = cli.main(["se_vs_m", "--out", str(out), "--set", "power.snr_db=140",
                       "--set", "run.trials=2", "--set", "run.m_grid=[99, 264]"])
        assert rc == 0
        assert TRUNCATION_MARKER not in out.read_text()

    def test_ber_snr_bound_is_at_geometry_m(self, tmp_path):
        # BER runs at geometry.M = 99 only (bound 156.5 dB), whatever
        # run.m_grid holds (148 dB at its M = 264).
        out = tmp_path / "ber.csv"
        rc = cli.main(["ber", "--out", str(out), "--set", "run.snr_grid_db=[150]",
                       "--set", "run.bits_per_point=2048"])
        assert rc == 0
        assert TRUNCATION_MARKER not in out.read_text()

    def test_seed_and_workers_flags(self, tmp_path):
        out = tmp_path / "flops.csv"
        cli.main(["flops", "--out", str(out), "--seed", "5", "--workers", "2"])
        manifest = json.loads((tmp_path / "flops.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["run"]["workers"] == 2

    def test_small_k_with_zero_side_blocks_runs(self, tmp_path, monkeypatch):
        # With K=4 a side subarray often serves no user of its group; its
        # block then gets no power instead of stopping the run.
        side_zero = []
        draw = metrics.draw_batch

        def recording_draw(scenario, rngs):
            out = draw(scenario, rngs)
            H1, _, H2 = out.realization.blocks()
            side_zero.extend(not h1.any() or not h2.any()
                             for h1, h2 in zip(H1, H2))
            return out

        monkeypatch.setattr(metrics, "draw_batch", recording_draw)
        out = tmp_path / "se.csv"
        rc = cli.main(["se_vs_m", "--out", str(out), "--set", "users.K=4",
                       "--set", "run.trials=20"])
        assert rc == 0
        assert len(side_zero) == 20 * len(ExperimentConfig().run.m_grid)
        assert any(side_zero)
        assert TRUNCATION_MARKER not in out.read_text()

    # A config file that cannot be read as UTF-8 text, or a CSV path that
    # cannot be opened (from --out or XLMIMO_OUT_DIR), fails as a typed
    # error before any row is computed.
    @pytest.mark.parametrize("argv, out_env", [
        (["--config", "{src}/missing.yaml", "--out", "{dst}/x.csv"], None),
        (["--config", "{src}", "--out", "{dst}/x.csv"], None),
        (["--config", "{src}/latin1.yaml", "--out", "{dst}/x.csv"], None),
        (["--out", "{dst}/missing/x.csv"], None),
        ([], "{dst}/missing")],
        ids=["missing-config", "config-is-dir", "config-not-utf8",
             "missing-out-dir", "missing-env-out-dir"])
    def test_file_errors_exit_2_before_any_csv(self, argv, out_env, tmp_path,
                                               monkeypatch, capsys):
        src, dst = tmp_path / "src", tmp_path / "dst"
        src.mkdir()
        dst.mkdir()
        (src / "latin1.yaml").write_bytes(b"run:\n  seed: \xff\n")
        if out_env:
            monkeypatch.setenv(cli.DEFAULT_OUT_ENV,
                               out_env.format(src=src, dst=dst))
        rc = cli.main(["flops"] + [a.format(src=src, dst=dst) for a in argv])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ConfigurationError"
        assert list(dst.iterdir()) == []

    def test_unwritable_manifest_exits_2(self, tmp_path, capsys):
        out = tmp_path / "flops.csv"
        manifest = tmp_path / "flops.csv.manifest.json"
        manifest.mkdir()
        assert cli.main(["flops", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        record = json.loads(err[0])
        assert record["error"] == "ConfigurationError"
        assert str(manifest) in record["message"]

    def test_default_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.DEFAULT_OUT_ENV, str(tmp_path))
        rc = cli.main(["flops"])
        assert rc == 0
        assert (tmp_path / "flops.csv").exists()
