"""Flat experiment configuration: ``[section]`` blocks of ``key = value`` pairs.

Values are numbers, booleans, quoted or bare strings, or bracketed lists.
Validation is full-document: every problem is collected and reported at once
with its field path, never first-failure only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import BuiltinLinearMeanField, CoefficientSet
from .errors import ConfigError
from .grids import TimeGrid
from .kernels import Kernel, kernel_from_params, _CONFIG_FAMILIES

# CPython's built-in SHA-256 (_sha2 from 3.12, _sha256 before), as random.py
# takes its sha512: hashlib would map OpenSSL only to hash the manifest
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

DEFAULT_MEMORY_BUDGET = 4_000_000_000

# the keys validate_config reads, per section; a model's builder checks the
# keys of [model], and kernel sections are not checked
_SECTION_KEYS = {
    "experiment": ("kind",),
    "grid": ("T", "n_steps"),
    "run": ("N", "seed", "eps", "eps_list", "p_list", "h_beta"),
    "rate": ("mode", "target_csv", "lambda_reg", "event_normal", "event_level"),
    "probe": ("kernel", "t", "h_list"),
    "output": ("directory", "ensemble_csv"),
    "limits": ("memory_bytes",),
    "workers": ("count",),
}
_SECTIONS = (*_SECTION_KEYS, "model", "kernel1", "kernel2", "kernelc")

# custom coefficient models register here by name; values are callables
# params_dict -> (CoefficientSet, xi_vector)
MODEL_REGISTRY: dict = {}


def _unknown_keys(section: str, params: dict, allowed) -> list:
    return [f"{section}.{key}: unknown key (allowed: {', '.join(allowed)})"
            for key in params if key not in allowed]


def _build_linear_mean_field(params: dict):
    issues = _unknown_keys("model", params,
                           ("name", "dim", "m", "A", "B", "sigma0", "sigma1", "xi"))
    issues += [f"model.{key} must be a positive integer" for key in ("dim", "m")
               if not _is_positive_int(params.get(key, 1))]
    issues += [f"model.{key} must be finite" for key in ("A", "B", "sigma0", "sigma1", "xi")
               if params.get(key) is not None
               and not np.all(np.isfinite(np.asarray(params[key], dtype=float)))]
    if issues:
        raise ConfigError(issues)
    d, m = params.get("dim", 1), params.get("m", 1)
    model = BuiltinLinearMeanField(
        a=params.get("A", 0.0), b=params.get("B", 0.0),
        sigma0=params.get("sigma0", 1.0), sigma1=params.get("sigma1", None),
        d=d, m=m,
    )
    xi = np.broadcast_to(np.asarray(params.get("xi", 0.0), dtype=float), (d,)).copy()
    return model.coefficients(), xi


MODEL_REGISTRY["linear_mean_field"] = _build_linear_mean_field


def parse_flat(text: str):
    """Parse the flat format into {section: {key: value}}; returns (data, issues)."""
    data: dict = {}
    issues: list = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]") or len(line) < 3:
                issues.append(f"line {lineno}, col 1: malformed section header {line!r}")
                section = None
                continue
            section = line[1:-1].strip()
            data.setdefault(section, {})
            continue
        if "=" not in line:
            issues.append(f"line {lineno}, col 1: expected 'key = value', got {line!r}")
            continue
        if section is None:
            issues.append(f"line {lineno}, col 1: key outside any [section]")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            issues.append(f"line {lineno}, col 1: empty key")
            continue
        try:
            data[section][key] = _parse_value(value)
        except ValueError as exc:
            col = raw.index("=") + 2
            issues.append(f"line {lineno}, col {col}: {exc}")
    return data, issues


def _parse_value(token: str):
    if token.startswith("[") :
        if not token.endswith("]"):
            raise ValueError(f"unterminated list {token!r}")
        inner = token[1:-1].strip()
        if not inner:
            return []
        return [_parse_scalar(part.strip()) for part in inner.split(",")]
    return _parse_scalar(token)


def _parse_scalar(token: str):
    if token == "":
        raise ValueError("empty value")
    if token.lower() in ("true", "false"):
        return token.lower() == "true"
    if (token.startswith('"') and token.endswith('"')) or (
        token.startswith("'") and token.endswith("'")
    ):
        return token[1:-1]
    try:
        as_int = int(token)
        return as_int
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


@dataclass
class ExperimentConfig:
    kind: str
    grid: TimeGrid
    coeffs: CoefficientSet
    xi: np.ndarray
    k1: Kernel
    k2: Kernel
    kc: Kernel | None
    n_particles: int
    seed: int
    eps_list: list
    p_list: list
    h_beta: float
    rate_mode: str
    target_csv: str | None
    lam_reg: float
    event_normal: np.ndarray
    event_level: float
    probe_kernel: str
    probe_t: float
    probe_h_list: list
    out_dir: str
    memory_budget: int
    workers: int
    write_ensemble: bool
    raw_text: str = field(repr=False, default="")

    @property
    def sha256(self) -> str:
        return _sha256(self.raw_text.encode("utf-8")).hexdigest()


def _is_number(val) -> bool:
    """An int or a float; a bool is neither here, though Python calls it an int."""
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _is_positive_int(val) -> bool:
    return _is_number(val) and isinstance(val, int) and val >= 1


def _check_number(issues, data, section, key, default, lo=None, hi=None,
                  integer=False, lo_strict=False):
    val = data.get(section, {}).get(key, default)
    path = f"{section}.{key}"
    if val is None:
        return None
    if not _is_number(val):
        issues.append(f"{path} must be a number")
        return default
    if not math.isfinite(val):
        issues.append(f"{path} must be finite")
        return default
    if integer and not isinstance(val, int):
        issues.append(f"{path} must be an integer")
        return default
    if lo is not None and (val <= lo if lo_strict else val < lo):
        issues.append(f"{path} must be {'>' if lo_strict else '>='} {lo}")
        return default
    if hi is not None and val > hi:
        issues.append(f"{path} must be <= {hi}")
        return default
    return val


def _kernel_from_section(issues, data, section: str, required: bool):
    sec = data.get(section)
    if sec is None:
        if required:
            issues.append(f"{section}: missing kernel section")
        return None
    family = sec.get("family")
    if family is None:
        issues.append(f"{section}.family is required")
        return None
    infinite = [f"{section}.{key} must be finite" for key, val in sec.items()
                if _is_number(val) and not math.isfinite(val)]
    if infinite:
        issues.extend(infinite)
        return None
    if family not in _CONFIG_FAMILIES:
        issues.append(
            f"{section}.family: unknown kernel family \"{family}\""
            f" (allowed: {', '.join(_CONFIG_FAMILIES)})"
        )
        return None
    if family == "tabulated" and not isinstance(sec.get("csv", ""), str):
        issues.append(f"{section}.csv must be a path")
        return None
    try:
        return kernel_from_params(family, sec)
    except KeyError as exc:
        issues.append(f"{section}: missing parameter {exc.args[0]!r} for family {family}")
    except (ValueError, OSError) as exc:
        issues.append(f"{section}: {exc}")
    return None


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigError carrying every issue found."""
    # what each kind requires is in the runner's table, which imports this module
    from .runner import EXPERIMENT_KINDS, _KINDS, _Kind

    data, issues = parse_flat(text)
    for section, sec in data.items():
        if section in _SECTION_KEYS:
            issues += _unknown_keys(section, sec, _SECTION_KEYS[section])
        elif section not in _SECTIONS:
            issues.append(f"{section}: unknown section (allowed: {', '.join(_SECTIONS)})")

    kind = data.get("experiment", {}).get("kind")
    if kind is None:
        issues.append("experiment.kind is required")
    elif kind not in EXPERIMENT_KINDS:
        issues.append(
            f"experiment.kind: unknown kind \"{kind}\" (allowed: {', '.join(EXPERIMENT_KINDS)})"
        )
    # an unknown kind is held to [kernel2] alone, and a missing one to nothing
    need = (_KINDS[kind] if kind in EXPERIMENT_KINDS
            else _Kind(None, None, None, kernel2=kind is not None))

    t_horizon = _check_number(issues, data, "grid", "T", 1.0, lo=0.0, lo_strict=True)
    n_steps = _check_number(issues, data, "grid", "n_steps", 100, lo=2, integer=True)

    model_sec = data.get("model", {})
    model_name = model_sec.get("name", "linear_mean_field")
    coeffs, xi = None, None
    if model_name not in MODEL_REGISTRY:
        issues.append(
            f"model.name: unknown model \"{model_name}\""
            f" (registered: {', '.join(sorted(MODEL_REGISTRY))})"
        )
    else:
        try:
            coeffs, xi = MODEL_REGISTRY[model_name](model_sec)
        except ConfigError as exc:
            issues.extend(exc.issues)
        except (ValueError, TypeError) as exc:
            issues.append(f"model: {exc}")

    # a section equal to an earlier one shares its kernel object, and with it
    # the weights the object caches: a run builds, holds and budgets them once
    kernels = {}
    for section, required in (("kernel1", True), ("kernel2", need.kernel2), ("kernelc", False)):
        same = [k for s, k in kernels.items() if k is not None and data.get(s) == data.get(section)]
        kernels[section] = same[0] if same else _kernel_from_section(issues, data, section, required)
    k1, k2, kc = kernels.values()

    n_particles = _check_number(issues, data, "run", "N", 1000, integer=True)
    if isinstance(n_particles, int) and n_particles < 1:
        issues.append("run.N must be at least 1")
    seed = _check_number(issues, data, "run", "seed", 0, integer=True)
    if isinstance(seed, int) and not (0 <= seed < 2**64):
        issues.append("run.seed must lie in [0, 2**64)")

    run_sec = data.get("run", {})
    eps_value = run_sec.get("eps")
    eps_list = run_sec.get("eps_list")
    if eps_list is None:
        eps_list = [eps_value] if eps_value is not None else [1.0]
    elif not isinstance(eps_list, list) or not eps_list:
        issues.append("run.eps_list must be a nonempty list")
        eps_list = [1.0]
    for i, e in enumerate(eps_list):
        if not _is_number(e) or not (0.0 < e <= 1.0):
            issues.append(f"run.eps[{i}] must lie in (0,1]")
    p_list = run_sec.get("p_list", [2])
    if not isinstance(p_list, list) or not all(_is_number(p) and 1 <= p < math.inf
                                               for p in p_list):
        issues.append("run.p_list must be a list of moments >= 1")
        p_list = [2]
    h_beta = _check_number(issues, data, "run", "h_beta", 0.25)
    if not (0.0 < h_beta < 0.5):
        issues.append("run.h_beta must lie in (0, 1/2)")

    rate_sec = data.get("rate", {})
    rate_mode = need.target or rate_sec.get("mode", need.rate_mode)
    if rate_mode not in ("ldp", "mdp"):
        issues.append("rate.mode must be 'ldp' or 'mdp'")
    target_csv = rate_sec.get("target_csv")
    if need.target and target_csv is None:
        issues.append("rate.target_csv is required for rate evaluation")
    elif target_csv is not None and not isinstance(target_csv, str):
        issues.append("rate.target_csv must be a path")
    lam_reg = _check_number(issues, data, "rate", "lambda_reg", 0.0, lo=0.0)
    event_normal = rate_sec.get("event_normal", [1.0])
    if not isinstance(event_normal, list) or not event_normal:
        issues.append("rate.event_normal must be a nonempty list")
        event_normal = [1.0]
    elif not all(_is_number(e) for e in event_normal):
        issues.append("rate.event_normal entries must be numbers")
        event_normal = [1.0]
    elif not all(math.isfinite(e) for e in event_normal):
        issues.append("rate.event_normal entries must be finite")
        event_normal = [1.0]
    elif need.event and coeffs is not None and len(event_normal) != coeffs.d:
        issues.append(f"rate.event_normal must have one entry per model dimension"
                      f" ({coeffs.d}), got {len(event_normal)}")
    elif need.event and not any(event_normal):
        # the event {0 >= level} is empty or everything: no rate to measure
        issues.append("rate.event_normal must not be all zero")
    event_level = _check_number(issues, data, "rate", "event_level", 1.0)

    probe_sec = data.get("probe", {})
    probe_kernel = probe_sec.get("kernel", "kernel1")
    if probe_kernel not in ("kernel1", "kernel2", "kernelc"):
        issues.append("probe.kernel must name one of kernel1, kernel2, kernelc")
    elif need.probe and probe_kernel in ("kernel2", "kernelc") and probe_kernel not in data:
        issues.append(f"probe.kernel: section {probe_kernel} is not defined")
    probe_t = _check_number(issues, data, "probe", "t", 0.5, lo=0.0, lo_strict=True)
    default_h = [1e-3, 2e-3, 5e-3, 1e-2]
    probe_h_list = probe_sec.get("h_list", default_h)
    if not isinstance(probe_h_list, list) or len(probe_h_list) < 4:
        issues.append("probe.h_list must be a list of at least 4 increments")
        probe_h_list = default_h
    elif not all(_is_number(h) for h in probe_h_list):
        issues.append("probe.h_list entries must be numbers")
        probe_h_list = default_h
    elif not all(math.isfinite(h) for h in probe_h_list):
        issues.append("probe.h_list entries must be finite")
        probe_h_list = default_h
    if need.probe and _is_number(probe_t) and _is_number(t_horizon):
        if min(probe_h_list) <= 0:
            issues.append("probe.h_list entries must be positive numbers")
        elif probe_t + max(probe_h_list) > t_horizon:
            issues.append("probe.t plus the largest h must stay within grid.T")

    out_dir = data.get("output", {}).get("directory", "out")
    if not isinstance(out_dir, str):
        issues.append("output.directory must be a path")
    write_ensemble = data.get("output", {}).get("ensemble_csv", True)
    if not isinstance(write_ensemble, bool):
        issues.append("output.ensemble_csv must be true or false")
        write_ensemble = True
    memory_budget = _check_number(
        issues, data, "limits", "memory_bytes", DEFAULT_MEMORY_BUDGET, lo=1, integer=True
    )
    workers = _check_number(issues, data, "workers", "count", 1, lo=1, integer=True)

    if issues:
        raise ConfigError(issues)
    return ExperimentConfig(
        kind=kind,
        grid=TimeGrid(float(t_horizon), int(n_steps)),
        coeffs=coeffs, xi=xi, k1=k1, k2=k2, kc=kc,
        n_particles=int(n_particles), seed=int(seed),
        eps_list=[float(e) for e in eps_list],
        p_list=[float(p) for p in p_list],
        h_beta=float(h_beta),
        rate_mode=rate_mode, target_csv=target_csv, lam_reg=float(lam_reg),
        event_normal=np.asarray(event_normal, dtype=float),
        event_level=float(event_level),
        probe_kernel=probe_kernel, probe_t=float(probe_t),
        probe_h_list=[float(h) for h in probe_h_list],
        out_dir=out_dir, memory_budget=int(memory_budget),
        workers=int(workers), write_ensemble=write_ensemble,
        raw_text=text,
    )
