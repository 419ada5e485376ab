import numpy as np
import pytest

from volterra_mv import ConfigError
from volterra_mv.config import parse_flat, validate_config

MINIMAL = """
[experiment]
kind = simulate

[kernel1]
family = constant
c = 1.0

[kernel2]
family = constant
c = 1.0
"""


class TestParser:
    def test_sections_and_values(self):
        data, issues = parse_flat(
            '[a]\nx = 1\ny = 2.5\nz = "text"\nflag = true\nlist = [1, 2e-3, 5]\n'
        )
        assert not issues
        assert data["a"]["x"] == 1
        assert data["a"]["y"] == 2.5
        assert data["a"]["z"] == "text"
        assert data["a"]["flag"] is True
        assert data["a"]["list"] == [1, 2e-3, 5]

    def test_comments_and_blanks(self):
        data, issues = parse_flat("# top\n[a]\n; note\nx = 1\n\n")
        assert not issues and data["a"]["x"] == 1

    def test_parse_errors_carry_position(self):
        _, issues = parse_flat("[a\nx = 1\n")
        assert any("line 1" in i for i in issues)
        _, issues = parse_flat("[a]\njust a line\n")
        assert any("line 2" in i for i in issues)
        _, issues = parse_flat("x = 1\n")
        assert any("outside any [section]" in i for i in issues)

    def test_duplicate_sections_merge(self):
        data, issues = parse_flat("[run]\nseed = 1\n[run]\nseed = 2\n")
        assert not issues and data["run"]["seed"] == 2


class TestValidation:
    def test_minimal_config_defaults(self):
        cfg = validate_config(MINIMAL)
        assert cfg.kind == "simulate"
        assert cfg.grid.horizon == 1.0 and cfg.grid.n_steps == 100
        assert cfg.n_particles == 1000
        assert cfg.seed == 0
        assert cfg.eps_list == [1.0]
        assert cfg.coeffs.d == 1

    def test_eps_range_message(self):
        text = MINIMAL + "\n[run]\neps = 1.5\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert "run.eps[0] must lie in (0,1]" in err.value.issues

    def test_unknown_family_names_alternatives(self):
        text = MINIMAL.replace("family = constant\nc = 1.0\n\n[kernel2]",
                               "family = gauss\n\n[kernel2]")
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any(
            "unknown kernel family" in i and "constant, power, fbm, tabulated" in i
            for i in err.value.issues
        )

    def test_all_errors_reported_at_once(self):
        text = """
[experiment]
kind = simulate
[kernel1]
family = gauss
[grid]
T = -1
n_steps = 1
[run]
N = 0
eps = 1.5
seed = 3
"""
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        issues = err.value.issues
        assert len(issues) >= 5
        assert any("grid.T" in i for i in issues)
        assert any("grid.n_steps" in i for i in issues)
        assert any("run.N" in i for i in issues)
        assert any("run.eps[0]" in i for i in issues)
        assert any("kernel1.family" in i for i in issues)

    def test_unknown_kind(self):
        text = MINIMAL.replace("kind = simulate", "kind = frobnicate")
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("experiment.kind" in i for i in err.value.issues)

    def test_rate_kinds_need_target(self):
        text = MINIMAL.replace("kind = simulate", "kind = mdp-rate")
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert any("rate.target_csv" in i for i in err.value.issues)

    def test_model_parameters_flow_through(self):
        text = MINIMAL + "\n[model]\nname = linear_mean_field\nA = 2.0\nxi = 1.5\n"
        cfg = validate_config(text)
        assert cfg.xi[0] == 1.5
        import numpy as np
        from volterra_mv import EmpiricalMeasure

        drift = cfg.coeffs.drift(0.0, np.array([[1.0]]), EmpiricalMeasure.dirac([0.0]))
        assert drift[0, 0] == 2.0

    def test_sha_changes_with_text(self):
        a = validate_config(MINIMAL)
        b = validate_config(MINIMAL + "\n# comment\n")
        assert a.sha256 != b.sha256


RATE_MIN = MINIMAL.replace("kind = simulate", "kind = rate-min")
TAIL_MDP = MINIMAL.replace("kind = simulate", "kind = tail-probe") + "\n[rate]\nmode = mdp\n"


class TestRunAndRateChecks:
    @pytest.mark.parametrize("h_beta", ["0", "1", "0.5", "-0.25"])
    def test_h_beta_range_checked_for_every_number(self, h_beta):
        with pytest.raises(ConfigError) as err:
            validate_config(TAIL_MDP + f"\n[run]\nh_beta = {h_beta}\n")
        assert "run.h_beta must lie in (0, 1/2)" in err.value.issues

    def test_h_beta_inside_range(self):
        assert validate_config(TAIL_MDP + "\n[run]\nh_beta = 0.3\n").h_beta == 0.3

    @pytest.mark.parametrize("normal", ["[a]", "[1.0, b]", "[true]"])
    def test_event_normal_entries_are_numbers(self, normal):
        text = RATE_MIN + f"\n[rate]\nevent_normal = {normal}\n\n[run]\nh_beta = 1\n"
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        # collected next to the other issues, not raised on its own
        assert err.value.issues == ["run.h_beta must lie in (0, 1/2)",
                                    "rate.event_normal entries must be numbers"]

    @pytest.mark.parametrize("kind", ["rate-min", "tail-probe"])
    def test_event_normal_length_is_the_model_dimension(self, kind):
        text = MINIMAL.replace("kind = simulate", f"kind = {kind}")
        with pytest.raises(ConfigError) as err:
            validate_config(text + "\n[rate]\nevent_normal = [1.0, 1.0]\n")
        assert err.value.issues == [
            "rate.event_normal must have one entry per model dimension (1), got 2"]
        two = "\n[model]\nname = linear_mean_field\ndim = 2\nm = 2\n"
        cfg = validate_config(text + two + "\n[rate]\nevent_normal = [1.0, 1]\n")
        assert cfg.event_normal.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("seed", [-3, -(2**63), 2**64])
    def test_seed_outside_uint64_is_refused(self, seed):
        # the noise streams key on np.uint64(seed), which refuses a negative seed
        with pytest.raises(ConfigError) as err:
            validate_config(MINIMAL + f"\n[run]\nseed = {seed}\n")
        assert err.value.issues == ["run.seed must lie in [0, 2**64)"]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_bounds_are_accepted(self, seed):
        assert validate_config(MINIMAL + f"\n[run]\nseed = {seed}\n").seed == seed

    @pytest.mark.parametrize("kind", ["simulate", "clt"])
    def test_empty_eps_list_is_refused(self, kind):
        text = MINIMAL.replace("kind = simulate", f"kind = {kind}")
        with pytest.raises(ConfigError) as err:
            validate_config(text + "\n[run]\neps_list = []\n")
        assert err.value.issues == ["run.eps_list must be a nonempty list"]

    @pytest.mark.parametrize("kind, extra, args, issue", [
        ("simulate", "", ["--seed", "-3"], "run.seed must lie in [0, 2**64)"),
        ("simulate", "\n[run]\neps_list = []\n", [], "run.eps_list must be a nonempty list"),
        ("clt", "\n[run]\neps_list = []\n", [], "run.eps_list must be a nonempty list"),
    ], ids=["negative-seed", "empty-eps-simulate", "empty-eps-clt"])
    def test_cli_reports_run_issues_and_writes_nothing(self, tmp_path, capsys, kind, extra,
                                                        args, issue):
        from volterra_mv.cli import main

        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL.replace("kind = simulate", f"kind = {kind}") + extra)
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--out", str(out), *args]) == 1
        assert capsys.readouterr().err == f"config error: {issue}\n"
        assert not out.exists()

    @pytest.mark.parametrize("normal", ["[a]", "[1.0, 1.0]"])
    def test_cli_reports_event_normal_and_writes_nothing(self, tmp_path, capsys, normal):
        from volterra_mv.cli import main

        path = tmp_path / "exp.cfg"
        path.write_text(RATE_MIN + f"\n[rate]\nevent_normal = {normal}\n")
        out = tmp_path / "out"
        assert main(["rate-min", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: rate.event_normal")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["rate-min", "tail-probe"])
    @pytest.mark.parametrize("normal", ["[0.0]", "[0]", "[-0.0]"])
    def test_cli_refuses_a_zero_event_normal(self, tmp_path, capsys, kind, normal):
        # the event {0 >= level} is empty or everything: its rate means nothing
        from volterra_mv.cli import main

        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL.replace("kind = simulate", f"kind = {kind}")
                        + f"\n[rate]\nevent_normal = {normal}\n")
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: rate.event_normal must not be all zero\n"
        assert not out.exists()


class TestListEntries:
    @pytest.mark.parametrize("kind, extra, issue", [
        ("limit", "\n[probe]\nh_list = [a, b, c, d]\n", "probe.h_list entries must be numbers"),
        ("simulate", "\n[run]\np_list = [true]\n", "run.p_list must be a list of moments >= 1"),
    ], ids=["h_list-limit", "p_list-bool"])
    def test_cli_reports_bad_entries_and_writes_nothing(self, tmp_path, capsys, kind, extra,
                                                        issue):
        from volterra_mv.cli import main

        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL.replace("kind = simulate", f"kind = {kind}") + extra)
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"config error: {issue}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["limit", "kernel-probe"])
    def test_bool_h_is_refused_for_every_kind(self, kind):
        text = (MINIMAL.replace("kind = simulate", f"kind = {kind}")
                + "\n[grid]\nT = 2.0\n\n[probe]\nh_list = [true, 1e-3, 2e-3, 5e-3]\n")
        with pytest.raises(ConfigError) as err:
            validate_config(text)
        assert err.value.issues == ["probe.h_list entries must be numbers"]


class TestModelAndFiniteness:
    @pytest.mark.parametrize("line, issue", [
        ("dim = 0", "model.dim must be a positive integer"),
        ("dim = 1.5", "model.dim must be a positive integer"),
        ("dim = true", "model.dim must be a positive integer"),
        ("m = 0", "model.m must be a positive integer"),
        ("m = -2", "model.m must be a positive integer"),
    ], ids=["dim-zero", "dim-float", "dim-bool", "m-zero", "m-negative"])
    def test_model_dimensions_are_positive_integers(self, line, issue):
        with pytest.raises(ConfigError) as err:
            validate_config(MINIMAL + f"\n[model]\nname = linear_mean_field\n{line}\n")
        assert err.value.issues == [issue]

    @pytest.mark.parametrize("section, line, issue", [
        ("grid", "T = nan", "grid.T must be finite"),
        ("grid", "T = inf", "grid.T must be finite"),
        ("model", "A = nan", "model.A must be finite"),
        ("model", "sigma1 = -inf", "model.sigma1 must be finite"),
        ("model", "xi = [0.0, nan]\ndim = 2", "model.xi must be finite"),
        ("kernel2", "family = power\nH = 0.3\nscale = inf", "kernel2.scale must be finite"),
        ("run", "h_beta = nan", "run.h_beta must be finite"),
        ("run", "p_list = [2, inf]", "run.p_list must be a list of moments >= 1"),
        ("rate", "lambda_reg = inf", "rate.lambda_reg must be finite"),
        ("rate", "event_level = nan", "rate.event_level must be finite"),
        ("rate", "event_normal = [nan]", "rate.event_normal entries must be finite"),
        ("probe", "t = nan", "probe.t must be finite"),
        ("probe", "h_list = [1e-3, inf, 5e-3, 1e-2]", "probe.h_list entries must be finite"),
    ], ids=["T-nan", "T-inf", "A-nan", "sigma1-inf", "xi-nan", "kernel-scale-inf", "h_beta-nan",
            "p_list-inf", "lambda_reg-inf", "event_level-nan", "event_normal-nan", "probe-t-nan",
            "h_list-inf"])
    def test_non_finite_numbers_are_refused(self, section, line, issue):
        with pytest.raises(ConfigError) as err:
            validate_config(MINIMAL + f"\n[{section}]\n{line}\n")
        assert err.value.issues == [issue]

    @pytest.mark.parametrize("kind, extra, issue", [
        ("limit", "\n[model]\ndim = 0\n", "model.dim must be a positive integer"),
        ("simulate", "\n[model]\nm = 0\n", "model.m must be a positive integer"),
        ("limit", "\n[grid]\nT = nan\n", "grid.T must be finite"),
        ("limit", "\n[grid]\nT = inf\n", "grid.T must be finite"),
        ("limit", "\n[model]\nA = nan\n", "model.A must be finite"),
    ], ids=["dim-zero", "m-zero", "T-nan", "T-inf", "A-nan"])
    def test_cli_reports_model_and_grid_issues_and_writes_nothing(self, tmp_path, capsys,
                                                                   kind, extra, issue):
        from volterra_mv.cli import main

        path = tmp_path / "exp.cfg"
        path.write_text(MINIMAL.replace("kind = simulate", f"kind = {kind}") + extra)
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: {issue}\n"
        assert not out.exists()


def _cli_refuses(tmp_path, capsys, kind, text):
    """The CLI's stderr for a config it must refuse with exit 1, before any output."""
    from volterra_mv.cli import main

    path = tmp_path / "exp.cfg"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([kind, "--config", str(path), "--out", str(out)]) == 1
    assert not out.exists()
    return capsys.readouterr().err


class TestKernelProbe:
    def test_undefined_probe_section_is_reported_with_every_other_issue(self, tmp_path, capsys):
        # collected with every other issue, and refused before any output
        text = (MINIMAL.replace("kind = simulate", "kind = kernel-probe")
                + "\n[probe]\nkernel = kernelc\nt = 2.0\n")
        err = _cli_refuses(tmp_path, capsys, "kernel-probe", text)
        assert err == ("config error: probe.kernel: section kernelc is not defined\n"
                       "config error: probe.t plus the largest h must stay within grid.T\n")

    def test_undefined_kernel2_is_refused_for_the_probe_alone(self):
        text = "\n[experiment]\nkind = {}\n[kernel1]\nfamily = constant\nc = 1.0\n" + (
            "\n[probe]\nkernel = kernel2\n")
        with pytest.raises(ConfigError) as err:
            validate_config(text.format("kernel-probe"))
        assert err.value.issues == ["probe.kernel: section kernel2 is not defined"]
        # the other kinds check the probe section but never read its kernel
        assert validate_config(text.format("limit")).probe_kernel == "kernel2"


class TestSharedKernels:
    def test_equal_sections_share_one_kernel_object(self):
        # so that a run builds, holds and budgets their weights once
        cfg = validate_config(MINIMAL + "\n[kernelc]\nfamily = constant\nc = 1.0\n")
        assert cfg.k1 is cfg.k2 and cfg.kc is cfg.k1
        text = MINIMAL.replace("[kernel1]\nfamily = constant\nc = 1.0",
                               "[kernel1]\nfamily = fbm\nH = 0.3")
        cfg = validate_config(text + "\n[kernelc]\nfamily = constant\nc = 1.0\n")
        assert cfg.k1 is not cfg.k2 and cfg.kc is cfg.k2

    @pytest.mark.parametrize("kernel2", ["family = constant\nc = 2.0", "family = power\nH = 0.3",
                                         "family = fbm\nH = 0.3"])
    def test_different_sections_stay_distinct(self, kernel2):
        cfg = validate_config(MINIMAL.replace("[kernel2]\nfamily = constant\nc = 1.0",
                                              "[kernel2]\n" + kernel2))
        assert cfg.k1 is not cfg.k2 and cfg.k1 != cfg.k2
        assert cfg.kc is None


class TestUnknownKeys:
    @pytest.mark.parametrize("extra, issue", [
        ("[run]\nn = 7", "run.n: unknown key (allowed: N, seed, eps, eps_list, p_list, h_beta)"),
        ("[probe]\nmethod = series", "probe.method: unknown key (allowed: kernel, t, h_list)"),
        ("[grid]\nsteps = 10", "grid.steps: unknown key (allowed: T, n_steps)"),
        ("[model]\na = 2.0",
         "model.a: unknown key (allowed: name, dim, m, A, B, sigma0, sigma1, xi)"),
        ("[runs]\nN = 7", "runs: unknown section (allowed: experiment, grid, run, rate, probe,"
                          " output, limits, workers, model, kernel1, kernel2, kernelc)"),
    ], ids=["run-n", "probe-method", "grid-steps", "model-a", "section"])
    def test_keys_nothing_reads_are_refused(self, extra, issue):
        with pytest.raises(ConfigError) as err:
            validate_config(MINIMAL + f"\n{extra}\n")
        assert err.value.issues == [issue]

    def test_cli_refuses_a_typo_and_writes_nothing(self, tmp_path, capsys):
        err = _cli_refuses(tmp_path, capsys, "simulate", MINIMAL + "\n[run]\nn = 7\n")
        assert err == ("config error: run.n: unknown key"
                       " (allowed: N, seed, eps, eps_list, p_list, h_beta)\n")

    def test_registered_model_keeps_its_own_keys(self, monkeypatch):
        from volterra_mv import BuiltinLinearMeanField
        from volterra_mv.config import MODEL_REGISTRY

        def build(params):
            model = BuiltinLinearMeanField(a=params["rate"])
            return model.coefficients(), np.zeros(1)

        monkeypatch.setitem(MODEL_REGISTRY, "decay", build)
        cfg = validate_config(MINIMAL + "\n[model]\nname = decay\nrate = -1.0\n")
        assert cfg.coeffs.d == 1


class TestPathsAndTables:
    def test_target_csv_must_be_a_path(self, tmp_path, capsys):
        text = MINIMAL.replace("kind = simulate", "kind = ldp-rate") + "\n[rate]\ntarget_csv = 0\n"
        err = _cli_refuses(tmp_path, capsys, "ldp-rate", text)
        assert err == "config error: rate.target_csv must be a path\n"

    def test_kernel_csv_must_be_a_path(self, tmp_path, capsys):
        text = MINIMAL.replace("kind = simulate", "kind = limit").replace(
            "family = constant\nc = 1.0\n\n[kernel2]", "family = tabulated\ncsv = 3\n\n[kernel2]")
        err = _cli_refuses(tmp_path, capsys, "limit", text)
        assert err == "config error: kernel1.csv must be a path\n"

    @pytest.mark.parametrize("value", ["7", "true", "[1, 2]"])
    def test_output_directory_must_be_a_path(self, tmp_path, capsys, monkeypatch, value):
        # without --out the config's directory is used; before, 7 wrote into
        # ./7 and true into ./True
        from volterra_mv.cli import main

        monkeypatch.chdir(tmp_path)
        text = MINIMAL.replace("kind = simulate", "kind = limit")
        (tmp_path / "exp.cfg").write_text(text + f"\n[output]\ndirectory = {value}\n")
        assert main(["limit", "--config", "exp.cfg"]) == 1
        assert capsys.readouterr().err == "config error: output.directory must be a path\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    def test_quoted_output_directory_is_a_path(self, tmp_path, monkeypatch):
        from volterra_mv.cli import main

        monkeypatch.chdir(tmp_path)
        text = MINIMAL.replace("kind = simulate", "kind = limit")
        (tmp_path / "exp.cfg").write_text(text + '\n[output]\ndirectory = "7"\n')
        assert main(["limit", "--config", "exp.cfg"]) == 0
        assert (tmp_path / "7" / "path.csv").exists()

    def test_tabulated_values_must_be_finite(self, tmp_path, capsys):
        table = tmp_path / "kern.csv"
        table.write_text("t,s,value\n0.5,0.0,1.0\n1.0,0.0,nan\n1.0,0.5,1.0\n")
        text = MINIMAL.replace("kind = simulate", "kind = limit").replace(
            "family = constant\nc = 1.0\n\n[kernel2]",
            f"family = tabulated\ncsv = \"{table}\"\n\n[kernel2]")
        err = _cli_refuses(tmp_path, capsys, "limit", text)
        assert err == "config error: kernel1: tabulated kernel times and values must be finite\n"
