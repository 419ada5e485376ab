"""Start-up cost: importing the library loads numpy only, not even the CSV
formatter and its digit tables, numpy.polynomial or OpenSSL, and a run loads
only the scipy submodules its path calls; noisy runs and fbm kernels load no
scipy.special, and numpy.random loads only for a clt run's bootstrap.  Each
check runs in a fresh interpreter, because this test session has imported
scipy already."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

RATE_MIN = """
[experiment]
kind = rate-min

[model]
name = linear_mean_field
A = 1.0
B = 0.5
sigma0 = 1.0
xi = 0.0

[kernel1]
family = constant
c = 1.0

[kernel2]
family = constant
c = 1.0

[grid]
T = 1.0
n_steps = 20

[rate]
mode = ldp
event_normal = [1.0]
event_level = 1.0
"""


def _run(code: str, cwd) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_loads_no_scipy_and_no_pool(tmp_path):
    out = _run("""
        import sys
        import volterra_mv.cli
        heavy = ("scipy.optimize", "scipy.integrate", "scipy.spatial", "scipy.special",
                 "concurrent.futures.process", "volterra_mv.textfmt")
        print(" ".join(m for m in heavy if m in sys.modules))
    """, tmp_path)
    assert out.strip() == ""


def test_fbm_point_evaluation_loads_no_quadrature(tmp_path):
    # eval_kernel calls the kernel's own series for every family
    out = _run("""
        import sys
        from volterra_mv import FbmKernel, eval_kernel
        val = eval_kernel(FbmKernel(0.3), 1.0, 0.3)
        print(val > 0.0, "scipy.integrate" in sys.modules)
    """, tmp_path)
    assert out.split() == ["True", "False"]


def test_convolution_profile_weights_load_no_quadrature(tmp_path):
    # the lag averages take the fixed Gauss-Legendre rules of every kernel
    out = _run("""
        import sys
        from volterra_mv import CustomKernel, TimeGrid
        kern = CustomKernel(fn=lambda t, s: (t - s) ** -0.2, edge_exponent_diagonal=-0.2,
                            convolution_profile=lambda u: u ** -0.2)
        w = kern.average_weights(TimeGrid(1.0, 20))
        print(w[20, 0] > 0.0, "scipy.integrate" in sys.modules)
    """, tmp_path)
    assert out.split() == ["True", "False"]


def test_constant_kernel_rate_min_run_loads_no_scipy(tmp_path):
    (tmp_path / "exp.cfg").write_text(RATE_MIN)
    out = _run("""
        import sys
        from volterra_mv.cli import main
        rc = main(["rate-min", "--config", "exp.cfg", "--out", "out"])
        print(rc, "scipy" in sys.modules)
    """, tmp_path)
    assert out.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "summary.txt").exists()


def test_constant_kernel_limit_run_loads_no_scipy(tmp_path):
    # the limit is a one-particle run of the particle march: it draws no noise
    limit = RATE_MIN.replace("kind = rate-min", "kind = limit").split("[rate]")[0]
    (tmp_path / "exp.cfg").write_text(limit)
    out = _run("""
        import sys
        from volterra_mv.cli import main
        rc = main(["limit", "--config", "exp.cfg", "--out", "out"])
        print(rc, "scipy" in sys.modules)
    """, tmp_path)
    assert out.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / "path.csv").exists()


NOISY_FBM = RATE_MIN.split("[kernel1]")[0] + """
[kernel1]
family = power
H = 0.3

[kernel2]
family = fbm
H = 0.3

[grid]
T = 1.0
n_steps = 20

[run]
N = 50
seed = 3
"""


def _run_loads_no_special(tmp_path, kind, config, artifact):
    (tmp_path / "exp.cfg").write_text(config.replace("kind = rate-min", f"kind = {kind}"))
    out = _run(f"""
        import sys
        from volterra_mv.cli import main
        rc = main(["{kind}", "--config", "exp.cfg", "--out", "out"])
        print(rc, "scipy.special" in sys.modules)
    """, tmp_path)
    assert out.split()[-2:] == ["0", "False"]
    assert (tmp_path / "out" / artifact).exists()


def test_noisy_fbm_simulate_run_loads_no_scipy_special(tmp_path):
    _run_loads_no_special(tmp_path, "simulate", NOISY_FBM + "eps = 0.1\n", "summary.csv")


def test_clt_run_loads_no_scipy_special(tmp_path):
    _run_loads_no_special(tmp_path, "clt", NOISY_FBM + "eps_list = [0.1, 0.01]\n", "clt.csv")


def test_tail_probe_run_loads_no_scipy_special(tmp_path):
    config = NOISY_FBM + "eps_list = [0.5, 1.0]\n\n[rate]" + RATE_MIN.split("[rate]")[1]
    _run_loads_no_special(tmp_path, "tail-probe", config, "tail.csv")


def test_normal_increments_peak_memory_is_near_its_output(tmp_path):
    # the draws are made in blocks, so no temporary is of the output's size
    out = _run("""
        import tracemalloc
        from volterra_mv.rng import normal_increments
        normal_increments(1, "warm", 4, 5, 1, 0.1)
        tracemalloc.start()
        z = normal_increments(7, "particles", 1000, 1000, 1, 0.001)
        print(tracemalloc.get_traced_memory()[1] / z.nbytes)
    """, tmp_path)
    assert float(out) <= 1.3


# OpenSSL comes in with hashlib (as _hashlib), and again with numpy.random,
# whose seeding imports secrets and hmac
def test_cli_import_loads_no_openssl_and_no_numpy_polynomial(tmp_path):
    out = _run("""
        import sys
        import volterra_mv.cli
        print(" ".join(m for m in ("_hashlib", "numpy.polynomial") if m in sys.modules))
    """, tmp_path)
    assert out.strip() == ""


def _run_loads_no_openssl(tmp_path, kind, config, artifact):
    (tmp_path / "exp.cfg").write_text(config.replace("kind = rate-min", f"kind = {kind}"))
    out = _run(f"""
        import sys
        from volterra_mv.cli import main
        rc = main(["{kind}", "--config", "exp.cfg", "--out", "out"])
        print(rc, *(m for m in ("_hashlib", "numpy.random") if m in sys.modules))
    """, tmp_path)
    assert out.splitlines()[-1].split() == ["0"]
    assert (tmp_path / "out" / artifact).exists()


def test_simulate_run_loads_no_openssl_and_no_numpy_random(tmp_path):
    _run_loads_no_openssl(tmp_path, "simulate", NOISY_FBM + "eps = 0.1\n", "summary.csv")


def test_rate_min_run_loads_no_openssl_and_no_numpy_random(tmp_path):
    _run_loads_no_openssl(tmp_path, "rate-min", RATE_MIN, "control.csv")


def test_clt_marches_before_numpy_random_loads(tmp_path):
    # the bootstrap, the one user of numpy.random in a clt run, runs once
    # every eps has been marched and the march arrays are freed
    (tmp_path / "exp.cfg").write_text(NOISY_FBM.replace("kind = rate-min", "kind = clt")
                                      + "eps_list = [0.1, 0.01, 0.001]\n")
    out = _run("""
        import sys
        from volterra_mv import runner
        from volterra_mv.cli import main

        loaded = []
        real = runner.clt_pair

        def pair(*args, **kwargs):
            loaded.append("numpy.random" in sys.modules)
            return real(*args, **kwargs)

        runner.clt_pair = pair
        rc = main(["clt", "--config", "exp.cfg", "--out", "out"])
        print(rc, *loaded, "numpy.random" in sys.modules)
    """, tmp_path)
    assert out.split()[-5:] == ["0", "False", "False", "False", "True"]
    assert (tmp_path / "out" / "clt.csv").exists()


def test_all_lists_the_public_names_and_no_module():
    import types

    import volterra_mv

    names = volterra_mv.__all__
    assert len(names) == len(set(names)) == 56
    for name in names:
        assert not isinstance(getattr(volterra_mv, name), types.ModuleType), name
    public = {name for name, value in vars(volterra_mv).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(names) == public


def test_import_looks_up_no_blas(tmp_path):
    # the OpenBLAS thread setter is looked up at the first march, not at import
    out = _run("""
        import volterra_mv.cli
        from volterra_mv import kernels
        print(kernels._openblas_threads.cache_info().currsize)
    """, tmp_path)
    assert out.strip() == "0"
