"""Configuration, pipeline orchestration, studies, slope fitting, exit codes."""

import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import isomesh.adjacent
import isomesh.cli
from helpers import load_mesh
from isomesh.cli import (
    _COMMANDS,
    _build_parser,
    ConfigError,
    NonPositiveValue,
    Pipeline,
    PipelineConfig,
    StudyResult,
    convergence_study,
    fit_slope,
    format_report,
    load_config,
    main,
    run_pipeline,
)

SRC = Path(__file__).resolve().parents[1] / "src"


class TestFitSlope:
    def test_two_point_exact(self):
        assert fit_slope([(8, 1 / 64), (16, 1 / 256)]) == pytest.approx(-2.0, abs=1e-12)

    def test_constant(self):
        assert fit_slope([(8, 3.0), (16, 3.0), (32, 3.0)]) == pytest.approx(0.0)

    def test_synthetic_exact_quadratic(self):
        pairs = [(n, float(n) ** -2) for n in (8, 16, 32, 64)]
        assert fit_slope(pairs) == pytest.approx(-2.0, abs=1e-12)

    def test_noisy_first_order(self):
        rng = np.random.default_rng(0)
        pairs = [(n, (1 + 0.01 * rng.uniform(-1, 1)) / n) for n in (8, 16, 32, 64)]
        assert abs(fit_slope(pairs) + 1.0) <= 0.05

    def test_nonpositive(self):
        with pytest.raises(NonPositiveValue):
            fit_slope([(8, 1.0), (16, 0.0)])
        with pytest.raises(NonPositiveValue):
            fit_slope([(8, 1.0), (16, -2.0)])
        for bad in (np.nan, np.inf):
            with pytest.raises(NonPositiveValue):
                fit_slope([(8, bad), (16, 1.0), (32, 0.5)])

    def test_too_few(self):
        with pytest.raises(ValueError):
            fit_slope([(8, 1.0)])


class TestConfig:
    def test_defaults(self):
        cfg = load_config()
        assert cfg.spec == "clifford"
        assert cfg.n == 16
        assert cfg.n_list == (8, 16, 32, 64)

    def test_file_and_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n[pipeline]\nspec = flat-plane\nn = 4\nseed = 7\n"
            "embedding_check = true\nn_list = 4,8,16\n"
        )
        cfg = load_config(str(path), {"n": 8})
        assert cfg.spec == "flat-plane"
        assert cfg.n == 8
        assert cfg.seed == 7
        assert cfg.embedding_check is True
        assert cfg.n_list == (4, 8, 16)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("subdivisions = 8\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.cfg")

    def test_bad_values(self, tmp_path):
        for text in ("n = four\n", "embedding_check = maybe\n", "gamma = 1,2,3\n"):
            path = tmp_path / "bad.cfg"
            path.write_text(text)
            with pytest.raises(ConfigError):
                load_config(str(path))

    def test_help_lists_every_key_as_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        shown = capsys.readouterr().out
        for key in fields(PipelineConfig):
            assert f"--{key.name.replace('_', '-')}" in shown
        # Defaults are read from the fields.
        assert "subdivision count (16)" in shown
        assert "(8,16,32,64)" in shown

    @pytest.mark.parametrize(
        "key, good, bad",
        [
            ("spec", "flat-plane", "moebius"),
            ("n", "4", "four"),
            ("embedding_check", "true", "maybe"),
            ("seed", "3", "-1"),
            ("out", "table.csv", "/nonexistent/d/x"),
            ("projection", "0,1,2", "0,1"),
            ("n_list", "4,6,8", "4,x,8"),
            ("timings", "true", "maybe"),
        ],
    )
    def test_flag_and_file_line_agree(self, tmp_path, monkeypatch, capsys, key, good, bad):
        # A flag's text goes through the parser of a file line: the same
        # config, or the same config error and exit 2.
        seen = []

        def study(cfg):
            seen.append(Pipeline(cfg).cfg)  # checks the spec, as a study's first run does
            return StudyResult([], {}, "")

        def outcome(argv):
            code = main(["study", *argv])
            return code, seen.pop() if seen else None, capsys.readouterr().err

        monkeypatch.setattr(isomesh.cli, "convergence_study", study)
        monkeypatch.chdir(tmp_path)
        flag = f"--{key.replace('_', '-')}"
        boolean = key in ("embedding_check", "timings")
        path = tmp_path / "run.cfg"
        for text in (good, bad):
            path.write_text(f"{key} = {text}\n")
            by_file = outcome(["--config", str(path)])
            if text == good:
                assert by_file[:2] == (0, load_config(str(path)))
                assert by_file[1] != PipelineConfig()
            else:
                assert by_file[0] == 2 and by_file[2].startswith("config error: ")
            if not (boolean and text == bad):  # a boolean flag takes no value
                assert outcome([flag] if boolean else [flag, text]) == by_file

    @pytest.mark.parametrize("key", ["embedding_check", "timings"])
    def test_bad_boolean_names_its_key(self, tmp_path, capsys, key):
        # A boolean key's bad text is reported as every other key's is, by
        # file line and as flag text (a flag passes "true" to the same
        # parser); exit 2.
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = maybe\n")
        assert main(["sample", "--n", "4", "--config", str(path)]) == 2
        want = "'maybe' (expected one of true, 1, yes, false, 0, no)\n"
        assert capsys.readouterr().err == f"config error: bad value for {key}: {want}"
        with pytest.raises(ConfigError, match=f"^bad value for {key}: 'maybe' "):
            load_config(overrides={key: "maybe"})
        path.write_text(f"{key} = yes\n")
        flag = f"--{key.replace('_', '-')}"
        assert getattr(load_config(str(path)), key) is True
        assert main(["sample", "--n", "4", flag]) == 0
        capsys.readouterr()

    def test_unknown_spec_is_config_error(self):
        cfg = PipelineConfig(spec="moebius", n=4)
        with pytest.raises(ConfigError):
            run_pipeline(cfg)


class TestRunPipeline:
    def test_flat_plane_exact(self):
        cfg = PipelineConfig(spec="flat-plane", n=4, embedding_check=True)
        res = run_pipeline(cfg)
        r = res.report
        assert r["solve_iterations"] == 0
        assert r["apex_offset_max"] <= 1e-12
        assert r["pl_c0"] <= 1e-12
        assert r["pl_c1"] <= 1e-12
        assert r["isotropy"] == "pass"
        assert r["immersion"] == "pass"
        assert r["embedding"] == "pass"

    def test_report_keys_and_cross_identity(self):
        cfg = PipelineConfig(spec="product:figure8,circle", n=8)
        res = run_pipeline(cfg)
        r = res.report
        for key in ("mu_c0", "mu_c1w", "mu_holder", "correction_c0",
                    "tri_c0", "pl_c0", "pl_c1", "interp_c0"):
            assert key in r
        # Two code paths, one quantity: mu_c0 * N^-2 vs max |liouville|.
        assert abs(r["mu_c0"] / 64.0 - r["liouville_max"]) <= 1e-12
        assert r["embedding"] == "skipped"


class TestLazyStages:
    @pytest.mark.parametrize("spec", ["clifford", "product:figure8,circle"])
    def test_printed_keys_match_full_report(self, tmp_path, capsys, spec):
        full = run_pipeline(PipelineConfig(spec=spec, n=8)).report
        for command, (_, keys) in _COMMANDS.items():
            if keys is None:
                continue
            assert main([command, "--spec", spec, "--n", "8"]) == 0
            assert capsys.readouterr().out == format_report({k: full[k] for k in keys})
        out = tmp_path / "verify.report"
        assert main(["verify", "--spec", spec, "--n", "8", "--out", str(out)]) == 0
        assert capsys.readouterr().out == format_report(
            {k: full[k] for k in _COMMANDS["verify"][1]}
        )
        assert out.read_text() == format_report(full)

    @pytest.mark.parametrize(
        "command, unused",
        [
            (
                "verify",
                ("distance_c0", "distance_c1", "sample_tri", "weak_norm",
                 "facet_liouville", "barycentric_apexes", "check_embedding"),
            ),
            ("sample", ("project_isotropic",)),
        ],
    )
    def test_subcommand_runs_only_its_stages(self, monkeypatch, capsys, command, unused):
        def forbidden(*args, **kwargs):
            raise AssertionError("stage not needed by the printed keys")

        for name in unused:
            monkeypatch.setattr(isomesh.cli, name, forbidden)
        assert main([command, "--spec", "product:figure8,circle", "--n", "8"]) == 0

    def test_embedding_check_reuses_the_immersion_verdict(self, monkeypatch, capsys):
        # The adjacent pairs are judged once, by check_immersion: one
        # triangle pass and one planar star pass per run of verify
        # --embedding-check.
        built = []

        def counted(name):
            original = getattr(isomesh.plmap, name)

            def wrapped(*args, **kwargs):
                built.append(name)
                return original(*args, **kwargs)

            return wrapped

        for name in ("_differential_norms", "_stars_left"):
            monkeypatch.setattr(isomesh.plmap, name, counted(name))
        argv = ["verify", "--spec", "product:figure8,circle", "--n", "8", "--embedding-check"]
        assert main(argv) == 4
        out = capsys.readouterr().out
        assert "immersion = pass" in out and "embedding = fail" in out
        assert sorted(built) == ["_differential_norms", "_stars_left"]

    def test_stage_seconds_count_own_work_only(self):
        cfg = PipelineConfig(spec="product:figure8,circle", n=16)
        t0 = time.perf_counter()
        res = run_pipeline(cfg, keys=_COMMANDS["verify"][1])
        wall = time.perf_counter() - t0
        # The verify keys pull in every earlier stage; each counts once.
        assert set(res.stage_seconds) == {"sample", "solve", "refine", "build", "verify"}
        assert all(t >= 0.0 for t in res.stage_seconds.values())
        assert sum(res.stage_seconds.values()) <= wall

    def test_stages_run_once(self, monkeypatch):
        calls = []
        original = isomesh.cli.project_isotropic

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(isomesh.cli, "project_isotropic", counted)
        res = run_pipeline(PipelineConfig(spec="product:figure8,circle", n=6))
        assert res.rho is not None and res.solve_report.iterations >= 0
        assert len(calls) == 1


class TestStudy:
    def test_requires_three_entries(self):
        cfg = PipelineConfig(spec="flat-plane", n_list=(4, 8))
        with pytest.raises(ConfigError):
            convergence_study(cfg)
        cfg = PipelineConfig(spec="flat-plane", n_list=(8, 4, 16))
        with pytest.raises(ConfigError):
            convergence_study(cfg)
        with pytest.raises(ConfigError, match="n_list entries"):
            convergence_study(PipelineConfig(spec="flat-plane", n_list=(0, 4, 8)))

    def test_figure8_study_rows_and_slopes(self):
        cfg = PipelineConfig(spec="product:figure8,circle", n_list=(4, 8, 16))
        result = convergence_study(cfg)
        assert len(result.rows) == 3
        assert all(row.error is None for row in result.rows)
        assert result.slopes["mu_c0"] is not None
        lines = result.table.strip().split("\n")
        assert lines[0].startswith("n,mu_c0,")
        assert sum(1 for line in lines if line.startswith("# slope")) == 7

    def test_flat_plane_study_has_na_slopes(self, monkeypatch):
        # On the identity chart every norm column is exactly zero: slopes are
        # reported as NA rather than fabricated.  At the default rotation the
        # distance columns are rounding noise, which no test should fit.
        monkeypatch.setattr(isomesh.cli, "DEFAULT_ROTATION", 0.0)
        cfg = PipelineConfig(spec="flat-plane", n_list=(4, 8, 16))
        result = convergence_study(cfg)
        assert all(v is None for v in result.slopes.values())
        assert "# slope mu_c0 = NA" in result.table

    def test_rounding_level_columns_read_na(self, capsys):
        # At the default rotation flat-plane's distance columns are rounding
        # noise (1e-16 to 1e-13 of a map of scale 2): no slope is fitted.
        assert main(["study", "--spec", "flat-plane", "--n-list", "8,16,32"]) == 0
        out = capsys.readouterr().out
        for col in ("tri_c0", "pl_c0", "pl_c1"):
            assert f"# slope {col} = NA" in out

    def test_rounding_level_leaves_figure8_table(self, monkeypatch):
        # Every figure8 x circle column lies far above rounding level.
        cfg = PipelineConfig(spec="product:figure8,circle", n_list=(4, 8, 16))
        table = convergence_study(cfg).table
        monkeypatch.setattr(isomesh.cli, "_ROUNDING_LEVEL", 0.0)
        assert convergence_study(cfg).table == table

    def test_determinism(self):
        cfg = PipelineConfig(spec="product:figure8,circle", n_list=(4, 8, 16))
        a = convergence_study(cfg).table
        b = convergence_study(cfg).table
        assert a == b

    def test_failure_markers(self, monkeypatch):
        monkeypatch.setattr("isomesh.solver._MAX_ITER", 0)
        cfg = PipelineConfig(spec="product:figure8,circle", n_list=(4, 8, 16))
        result = convergence_study(cfg)
        assert all(row.error is not None for row in result.rows)
        assert "failed: MaxIterExceeded" in result.table

    def test_timings_column_optional(self):
        cfg = PipelineConfig(spec="flat-plane", n_list=(4, 8, 16), timings=True)
        result = convergence_study(cfg)
        assert result.table.split("\n")[0].endswith(
            "t_sample,t_solve,t_refine,t_build,t_verify"
        )


class TestMain:
    def test_one_parser_takes_every_command(self, capsys):
        parser = _build_parser()
        for name in _COMMANDS:
            args = parser.parse_args([name, "--spec", "flat-plane", "--n", "4", "--seed", "1"])
            assert (args.command, args.spec, args.n, args.seed) == (name, "flat-plane", "4", "1")
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        with pytest.raises(SystemExit):
            main(["--help"])
        shown = capsys.readouterr().out
        assert all(f"  {name:<8}{doc}\n" in shown for name, (doc, _) in _COMMANDS.items())

    def test_parser_is_built_once(self, capsys):
        # Two runs share one parser, but not their flags.
        assert _build_parser() is _build_parser()
        argv = ["verify", "--spec", "flat-plane", "--n", "4"]
        assert main([*argv, "--embedding-check"]) == 0
        assert "embedding = pass" in capsys.readouterr().out
        assert main(argv) == 0
        assert "embedding = skipped" in capsys.readouterr().out

    def test_sample_subcommand(self, capsys):
        assert main(["sample", "--spec", "clifford", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "mu_c0 = " in out
        assert "facets = 65" in out

    def test_solve_and_verify(self, capsys):
        assert main(["solve", "--spec", "product:figure8,circle", "--n", "8"]) == 0
        assert main(["verify", "--spec", "product:figure8,circle", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "immersion = pass" in out

    def test_verify_clifford(self, capsys):
        assert main(["verify", "--spec", "clifford", "--n", "16"]) == 0
        out = capsys.readouterr().out
        assert "isotropy = pass" in out
        assert "immersion = pass" in out

    def test_export_writes_files(self, tmp_path, capsys):
        out = tmp_path / "mesh.symmesh"
        code = main(
            ["export", "--spec", "flat-plane", "--n", "2", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "mesh.symmesh.report").exists()

    @pytest.mark.parametrize("spec", ["clifford", "product:figure8,circle", "flat-plane"])
    def test_export_with_projection(self, tmp_path, capsys, spec):
        path = tmp_path / "mesh.symmesh"
        argv = ["export", "--spec", spec, "--n", "4", "--projection", "0,1,2", "--out", str(path)]
        assert main(argv) == 0
        report = (tmp_path / "mesh.symmesh.report").read_text()
        assert capsys.readouterr().out == report
        assert "immersion = pass" in report
        facets = int(report.split("facets = ")[1].split()[0])
        # Corners then apexes, four triangles per facet.
        dim, verts, faces = load_mesh(path)
        assert (dim, verts.shape, faces.shape) == (4, (2 * facets, 4), (4 * facets, 3))
        _, pverts, pfaces = load_mesh(f"{path}.obj")
        assert (pverts == verts[:, :3]).all()
        assert (pfaces == faces).all()

    def test_export_requires_out(self, capsys):
        assert main(["export", "--spec", "flat-plane", "--n", "2"]) == 2

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("n = 0\n")
        assert main(["sample", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "iso_tol = nan",
            "seed = -1",
            "n_list = 0,4,8",
        ],
    )
    def test_non_finite_or_negative_is_config_error(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"spec = product:figure8,circle\nn = 12\n{line}\n")
        assert main(["verify", "--config", str(path), "--embedding-check"]) == 2
        assert line.split()[0] in capsys.readouterr().err

    def test_negative_seed_flag_is_config_error(self, capsys):
        assert main(["sample", "--n", "80", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_gamma_mismatch_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "gamma.cfg"
        path.write_text("spec = clifford\nn = 4\ngamma = 1,0,0,2\n")
        assert main(["sample", "--config", str(path)]) == 2
        assert "gamma" in capsys.readouterr().err
        # gamma is no config key: even the spec's own basis is rejected.
        path.write_text("spec = clifford\nn = 4\ngamma = 1,0,0,1\n")
        assert main(["sample", "--config", str(path)]) == 2
        assert "unknown config key 'gamma'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        [
            "oversample = 4",
            "alpha = 0.5",
            "tol = 1e-8",
            "max_iter = 0",
            "check_tol = 1e-8",
            "rotation = 0",
            "rotation = nan",
        ],
    )
    def test_fixed_norm_parameters_are_no_config_keys(self, tmp_path, capsys, line):
        # The distance grid, the Hoelder exponent, the solver's stop and
        # budget, the topology tolerance and the chart rotation are module
        # constants.
        path = tmp_path / "fixed.cfg"
        path.write_text(f"spec = clifford\nn = 4\n{line}\n")
        assert main(["sample", "--config", str(path)]) == 2
        assert f"unknown config key {line.split()[0]!r}" in capsys.readouterr().err

    def test_bad_projection_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "proj.cfg"
        path.write_text("spec = clifford\nn = 4\nprojection = 0,1,7\n")
        out = tmp_path / "mesh.symmesh"
        assert main(["export", "--config", str(path), "--out", str(out)]) == 2
        assert "projection" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [path]  # nothing written

    def test_solver_failure_exit_code(self, monkeypatch):
        monkeypatch.setattr("isomesh.solver._MAX_ITER", 0)
        assert main(["solve", "--spec", "product:figure8,circle", "--n", "8"]) == 3

    def test_large_scale_clifford_verifies(self, capsys):
        # Isotropic up to rounding at radius 1000: the scale-invariant stop
        # takes no step instead of chasing the rounding.
        assert main(["verify", "--spec", "clifford:1000,1000", "--n", "8"]) == 0
        assert "isotropy = pass" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spec", ["clifford:nan,1", "clifford:1,nan", "clifford:inf,1", "clifford:1e400,1"]
    )
    def test_non_finite_radii_are_config_error(self, capsys, spec):
        assert main(["verify", "--spec", spec, "--n", "6"]) == 2
        assert "radii" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "build", "verify"])
    def test_non_finite_density_is_pipeline_error(self, capsys, command):
        # Radius 1e155 passes the config check, but the density overflows to NaN.
        argv = [command, "--spec", "clifford:1e155,1", "--n", "6", "--embedding-check"]
        with np.errstate(invalid="ignore", over="ignore"):
            assert main(argv) == 3
        out, err = capsys.readouterr()
        assert "pipeline error [LinearSolveFailure]" in err
        assert "pass" not in out

    def test_overflowing_density_prints_one_error_line(self):
        # At radius 1e300 the stop and the density overflow: in a fresh
        # interpreter that shows warnings, stderr holds the one documented
        # error line and no numpy warning.
        env = dict(os.environ, PYTHONWARNINGS="default")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["verify", "--spec", "clifford:1e300,1", "--n", "8"]
        proc = subprocess.run([sys.executable, "-m", "isomesh.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3
        assert proc.stderr == "pipeline error [LinearSolveFailure]: non-finite density residual nan\n"

    @staticmethod
    def _run_fresh(argv):
        """``isomesh`` in a fresh interpreter that shows warnings."""
        env = dict(os.environ, PYTHONWARNINGS="default")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "isomesh.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_thin_clifford_refine_gate_is_one_error_line(self):
        # At r2 / r1 = 1e-12 the optimal-apex offsets, about h^2 / r2, are so
        # large that refine's isotropy gate reads a residual far above its
        # limit on an isotropic torus: a pipeline error, exit 3, one line.
        proc = self._run_fresh(["verify", "--spec", "clifford:1,1e-12", "--n", "8"])
        assert proc.returncode == 3
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("pipeline error [NotIsotropic]")

    def test_thin_clifford_fails_immersion(self):
        # At r2 = 1e-4 and N = 8 the corner fans fold: immersion fails, exit 4.
        proc = self._run_fresh(["verify", "--spec", "clifford:1,1e-4", "--n", "8"])
        assert proc.returncode == 4
        assert "immersion = fail\n" in proc.stdout

    def test_sample_needs_no_solver(self, monkeypatch, capsys):
        monkeypatch.setattr("isomesh.solver._MAX_ITER", 0)
        assert main(["sample", "--spec", "product:figure8,circle", "--n", "8"]) == 0
        assert "mu_c0 = " in capsys.readouterr().out

    def test_solve_needs_no_refinement(self, monkeypatch, capsys):
        # A stop 1e6 times the gate's limit ends the projection early.
        monkeypatch.setattr("isomesh.solver._HEADROOM", 1e6)
        argv = ["--spec", "product:figure8,circle", "--n", "8"]
        assert main(["solve", *argv]) == 0
        out = capsys.readouterr().out
        residual = float(out.split("solve_residual_c0 = ")[1].split()[0])
        assert residual > 1e-4
        # Refinement's isotropy gate rejects this loose solve.
        assert main(["refine", *argv]) == 3
        err = capsys.readouterr().err
        assert "NotIsotropic" in err
        assert re.search(r"isotropy residual \S+ exceeds its limit \S+", err)
        assert re.search(r"\(liouville integral \S+\)", err)

    @pytest.mark.parametrize(
        "command, extra", [("export", ""), ("verify", ""), ("study", "n_list = 2,3,4\n")]
    )
    def test_unwritable_output_is_config_error(self, tmp_path, capsys, command, extra):
        path = tmp_path / "out.cfg"
        path.write_text(f"spec = flat-plane\nn = 4\n{extra}")
        assert main([command, "--config", str(path), "--out", "/nonexistent/d/x"]) == 2
        out, err = capsys.readouterr()
        assert err.startswith("config error: cannot write /nonexistent/d/")
        assert out == ""  # checked before any stage runs or prints

    def test_unwritable_export_obj_stops_before_any_stage(self, tmp_path, capsys):
        # With a projection, export also writes <out>.obj, here a directory.
        # Nothing runs or prints, and the probe leaves no file behind.
        cfg = tmp_path / "e.cfg"
        cfg.write_text("spec = flat-plane\nn = 4\nprojection = 0,1,2\n")
        out = tmp_path / "m.symmesh"
        (tmp_path / "m.symmesh.obj").mkdir()
        assert main(["export", "--config", str(cfg), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err.startswith(f"config error: cannot write {out}.obj")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.cfg", "m.symmesh.obj"]

    def test_certification_failure_exit_code(self, tmp_path):
        # The figure-eight torus self-intersects: embedding check fails.
        assert (
            main(
                [
                    "verify",
                    "--spec",
                    "product:figure8,circle",
                    "--n",
                    "8",
                    "--embedding-check",
                ]
            )
            == 4
        )

    def test_study_to_file_deterministic(self, tmp_path):
        cfg = tmp_path / "study.cfg"
        cfg.write_text("spec = product:figure8,circle\nn_list = 4,8,16\n")
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["study", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["study", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("to_file", [False, True])
    def test_study_flags(self, tmp_path, capsys, to_file):
        argv = ["study", "--spec", "product:figure8,circle", "--n-list", "4,6,8"]
        out = tmp_path / "table.csv"
        assert main(argv + ["--out", str(out)] * to_file) == 0
        text = out.read_text() if to_file else capsys.readouterr().out
        lines = text.splitlines()
        assert lines[0] == (
            "n,mu_c0,mu_c1w,mu_holder,correction_c0,tri_c0,pl_c0,pl_c1,"
            "immersion,embedding"
        )
        assert [line.split(",")[0] for line in lines[1:4]] == ["4", "6", "8"]
        assert sum(line.startswith("# slope ") for line in lines) == 7

    def test_study_timings_flag(self, capsys):
        argv = ["study", "--spec", "product:figure8,circle", "--n-list", "4,6,8", "--timings"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split(",")
        stages = [i for i, name in enumerate(header) if name.startswith("t_")]
        assert [header[i] for i in stages] == [
            "t_sample", "t_solve", "t_refine", "t_build", "t_verify"
        ]
        rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
        assert len(rows) == 3
        for cells in rows:
            assert all(float(cells[i]) >= 0.0 for i in stages)

    def test_report_format_stable(self):
        text = format_report({"a": 1.0, "b": "pass", "c": 3})
        assert text == "a = 1\nb = pass\nc = 3\n"
