"""Configuration parsing, seeding, experiment orchestration, and the CLI."""

import json

import numpy as np
import pytest

from xlmimo import channel, cli, config, experiments, geometry, metrics
from xlmimo.config import (EXPERIMENTS, ExperimentConfig, apply_overrides,
                           config_to_dict, parse_config)
from xlmimo.errors import ConfigurationError
from xlmimo.geometry import build_geometry
from xlmimo.experiments import TRUNCATION_MARKER, run_experiment
from xlmimo.seeding import seed_stream


class TestDefaults:
    def test_empty_document_yields_reference_defaults(self):
        cfg = parse_config("")
        assert cfg.geometry.M == 99
        assert cfg.users.K == 32
        assert cfg.channel.vr_mu_frac == 0.1 and cfg.channel.vr_sigma == 0.1
        assert cfg.solver.T == 5

    def test_reference_model_constants(self):
        assert (geometry.CARRIER_HZ, geometry.SPACING_WAVELENGTHS) == (2.6e9, 2.0)
        assert (geometry.CELL_SIDE, geometry.MIN_DIST) == (100.0, 30.0)
        assert (channel.OMEGA, channel.NU) == (4.0, 3.0)
        assert config.SIGMA2_DBM == -50.0

    def test_aperture_resolves_to_99_antennas(self):
        array = build_geometry(ExperimentConfig().geometry.M)
        assert array.M == 99 and array.M_s == 33
        assert array.N == pytest.approx(22.8, abs=0.1)

    def test_xi_snr_product(self):
        cfg = ExperimentConfig()
        assert cfg.power.xi * cfg.power.snr_linear == pytest.approx(1.0)
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
        ("power", "sigma2_dbm", -50.0)])
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

    @pytest.mark.parametrize("item", [
        "run.m_grid=[99.0]", "run.m_grid=[true]", "run.m_grid=[0]",
        "run.k_grid=[5.5]", "run.k_grid=[0]", "run.snr_grid_db=[a]",
        "run.snr_grid_db=[false]", "run.methods=[1]"])
    def test_bad_list_entry_rejected(self, item):
        with pytest.raises(ConfigurationError, match=item.split("=")[0]):
            apply_overrides(ExperimentConfig(), [item])

    @pytest.mark.parametrize("item", ["run.trials=true", "power.snr_db=true"])
    def test_bool_for_number_rejected(self, item):
        with pytest.raises(ConfigurationError, match="expected number"):
            apply_overrides(ExperimentConfig(), [item])

    # YAML 1.1 reads a number with an exponent but no dot (or no exponent
    # sign) as a string; float fields take it in a file and in --set alike.
    @pytest.mark.parametrize("form", ["yaml", "set"])
    @pytest.mark.parametrize("section, key, raw, value", [
        ("power", "snr_db", "3e1", 30.0),
        ("channel", "vr_sigma", "1e15", 1e15),
        ("channel", "vr_mu_frac", "1e-9", 1e-9),
        ("power", "snr_db", "-2.5E1", -25.0),
        ("solver", "omega", "1.0e1", 10.0)])
    def test_float_with_exponent_accepted(self, section, key, raw, value, form):
        cfg = _config_with(section, key, raw, form)
        assert getattr(getattr(cfg, section), key) == value

    @pytest.mark.parametrize("form", ["yaml", "set"])
    @pytest.mark.parametrize("section, key, raw", [
        ("run", "trials", "1e3"),            # a float for an int field
        ("solver", "omega", "3e"),           # no exponent digits
        ("solver", "omega", "e9"),           # no mantissa
        ("solver", "omega", "null"),
        ("solver", "omega", "yes")])
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
        "run.k_grid=[5, 30]", "channel.vr_mu_frac=3.0",
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

    def test_one_table_per_configurable_experiment(self):
        assert set(experiments.TABLES) == set(EXPERIMENTS)

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
        rc = cli.main(["flops", "--out", str(out), "--set", "run.k_grid=[30]"])
        assert rc == 0
        assert str(out) in capsys.readouterr().out
        assert out.exists()

    def test_error_is_machine_readable(self, capsys):
        rc = cli.main(["convergence", "--set", "solver.T=0"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"

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
        ("flops", "run.k_grid=[5, 5]"), ("ber", "run.snr_grid_db=[4.0, 4]")])
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
        # needs an iterative method; the subcommand runs one that does not
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

    def test_negative_seed_rejected_before_any_csv(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        rc = cli.main(["convergence", "--out", str(out), "--seed", "-1",
                       "--set", "run.trials=2"])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigurationError"
        assert "run.seed" in err["message"]
        assert list(tmp_path.iterdir()) == []

    def test_seed_and_workers_flags(self, tmp_path):
        out = tmp_path / "flops.csv"
        cli.main(["flops", "--out", str(out), "--seed", "5", "--workers", "2",
                  "--set", "run.k_grid=[5]"])
        manifest = json.loads((tmp_path / "flops.csv.manifest.json").read_text())
        assert manifest["seed"] == 5
        assert manifest["config"]["run"]["workers"] == 2

    def test_small_k_with_zero_side_blocks_runs(self, tmp_path, monkeypatch):
        # With K=4 a side subarray often serves no user of its group; its
        # block then gets no power instead of stopping the run.
        side_zero = []
        draw = metrics.draw_trial

        def recording_draw(scenario, rng):
            out = draw(scenario, rng)
            H1, _, H2 = out.realization.blocks()
            side_zero.append(not H1.any() or not H2.any())
            return out

        monkeypatch.setattr(metrics, "draw_trial", recording_draw)
        out = tmp_path / "se.csv"
        rc = cli.main(["se_vs_m", "--out", str(out), "--set", "users.K=4",
                       "--set", "run.trials=20"])
        assert rc == 0
        assert len(side_zero) == 20 * len(ExperimentConfig().run.m_grid)
        assert any(side_zero)
        assert TRUNCATION_MARKER not in out.read_text()

    def test_default_out_dir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(cli.DEFAULT_OUT_ENV, str(tmp_path))
        rc = cli.main(["flops", "--set", "run.k_grid=[5]"])
        assert rc == 0
        assert (tmp_path / "flops.csv").exists()
