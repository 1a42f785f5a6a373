"""Command-line entry points.

Subcommands: ``fit``, ``predict``, ``select-dist``, ``sweep-sigma``,
``simulate``.  Every run takes a JSON config (``--config``) with optional
flag overrides (``--seed``, ``--threads``, ``--alpha``, ``--out``) and writes
its outputs into the ``--out`` directory.

Exit codes: 0 success, 2 configuration error, 3 ingestion error, 4 numerical
failure.  Any other exit (1, with a traceback) is a defect.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError, NumericalError
from .forecast import (
    ForecastReport,
    load_matrix_csv,
    report_summary,
    resolve_cv_grid,
    run_demand_fit,
    run_matrix_eval,
    run_matrix_fit,
    run_sigma_sweep,
    structural_candidates,
    write_report_csv,
)
from .selection import CandidateModel, Dataset, SelectorConfig, default_lambda_grid
from .simulation import StudyConfig, render_mse_svg, run_study, write_study_csvs
from .smoothing import ResamplingDistribution
from .rng import derive_seed
from .splines import (
    DemandModelSpec,
    SplineBasisSpec,
    load_demand_csv,
    load_temperature_csv,
)
from .tabular import fmt, write_csv, write_json
from .tuning import cv_error_surface, select_distribution, write_surface_csv


_JSON_TYPES = {
    "an integer": (int,),
    "a number": (int, float),
    "a JSON list": (list,),
    "a JSON object": (dict,),
    "true or false": (bool,),
    "a string or an integer": (str, int),
    "a string": (str,),
}


def _typed(value, kind: str, name: str):
    """``value`` when it has the JSON type ``kind``; a bool is not an integer or number."""
    types = _JSON_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigError(f"{name} must be {kind}, got {json.dumps(value)}")
    return value


def _number(value, name: str) -> float:
    try:
        return float(_typed(value, "a number", name))
    except OverflowError:
        raise ConfigError(f"{name} is out of range for a float, got {value}") from None


def _numbers(value, name: str) -> tuple[float, ...]:
    items = enumerate(_typed(value, "a JSON list", name))
    return tuple(_number(v, f"{name}[{i}]") for i, v in items)


def _field(obj: dict, key: str, context: str):
    try:
        return obj[key]
    except (KeyError, TypeError):
        raise ConfigError(f"{context}: missing key '{key}'") from None


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _common(cfg: dict, args) -> dict:
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.threads is not None:
        cfg["threads"] = args.threads
    if args.alpha is not None:
        cfg["alpha"] = args.alpha
    cfg.setdefault("seed", 0)
    cfg.setdefault("threads", 1)
    cfg.setdefault("alpha", 0.05)
    cfg.setdefault("b", 200)
    _typed(cfg["seed"], "an integer", "seed")
    if _typed(cfg["threads"], "an integer", "threads") < 1:
        raise ConfigError("threads must be an integer >= 1")
    if not 0.0 < _number(cfg["alpha"], "alpha") < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {cfg['alpha']}")
    if _typed(cfg["b"], "an integer", "b") < 1:
        raise ConfigError("b must be an integer >= 1")
    return cfg


def _mode(cfg: dict) -> str:
    mode = cfg.get("mode")
    if mode not in ("matrix", "demand"):
        raise ConfigError("config 'mode' must be 'matrix' or 'demand'")
    return mode


def _require(cfg: dict, key: str) -> object:
    if key not in cfg:
        raise ConfigError(f"config key '{key}' is required for this command")
    return cfg[key]


def _path(cfg: dict, key: str) -> str:
    return _typed(_require(cfg, key), "a string", key)


def _candidates(cfg: dict, p: int) -> tuple[CandidateModel, ...]:
    raw = cfg.get("candidates")
    if raw is None:
        return (CandidateModel("full", tuple(range(p))),)
    out = []
    for i, entry in enumerate(_typed(raw, "a JSON list", "candidates")):
        name, model_id = f"candidates[{i}]", i
        if isinstance(entry, dict):
            model_id = _typed(_field(entry, "id", name), "a string or an integer", f"{name}.id")
            entry = _field(entry, "columns", name)
            name += ".columns"
        columns = _typed(entry, "a JSON list", name)
        cols = [_typed(c, "an integer", f"{name}[{j}]") for j, c in enumerate(columns)]
        out.append(CandidateModel(model_id, tuple(cols)))
    return tuple(out)


def _lambda_grid(cfg: dict) -> tuple[float, ...] | None:
    lam = cfg.get("lambda_grid")
    return None if lam is None else _numbers(lam, "lambda_grid")


def _selector(cfg: dict, candidates) -> SelectorConfig:
    lam = _lambda_grid(cfg)
    return SelectorConfig(
        candidates=candidates,
        lambda_grid=tuple(default_lambda_grid()) if lam is None else lam,
        criterion=cfg.get("criterion", "gcv"),
        cv_folds=_typed(cfg.get("criterion_folds", 5), "an integer", "criterion_folds"),
    )


def _cv_cfg(cfg: dict) -> dict:
    cv = dict(_typed(cfg.get("cv", {}), "a JSON object", "cv"))
    cv.setdefault("b_inner", cfg["b"])
    for key in ("k", "sigma2_count", "b_inner"):
        if key in cv:
            _typed(cv[key], "an integer", f"cv.{key}")
    if "refit_ols_per_block" in cv:
        _typed(cv["refit_ols_per_block"], "true or false", "cv.refit_ols_per_block")
    for key in ("sigma2_candidates", "gamma_candidates"):
        if cv.get(key) is not None:
            cv[key] = _numbers(cv[key], f"cv.{key}")
    if "sigma2_span" in cv:
        cv["sigma2_span"] = _number(cv["sigma2_span"], "cv.sigma2_span")
    if cv["b_inner"] < 1:
        raise ConfigError("cv.b_inner must be an integer >= 1")
    return cv


def _load_train_matrix(cfg: dict) -> Dataset:
    y, X, names = load_matrix_csv(_path(cfg, "train_csv"))
    if y is None:
        raise ConfigError("train_csv must carry a leading 'y' column")
    return Dataset(y, X, column_names=names)


def _load_targets_matrix(cfg: dict, p: int):
    y, X, _ = load_matrix_csv(_path(cfg, "targets_csv"))
    if X.shape[1] != p:
        raise ConfigError(
            f"targets_csv has {X.shape[1]} feature columns, training data has {p}"
        )
    truths = None if y is None else list(y)
    return X, truths


def _basis_ints(cfg: dict, key: str, default_n_basis: int) -> tuple[int, int]:
    basis = _typed(cfg.get(key, {"n_basis": default_n_basis}), "a JSON object", key)
    degree = _typed(basis.get("degree", 3), "an integer", f"{key}.degree")
    return degree, _typed(_field(basis, "n_basis", key), "an integer", f"{key}.n_basis")


def _demand_inputs(cfg: dict):
    for key in ("criterion", "criterion_folds"):
        if key in cfg:
            raise ConfigError(f"'{key}' applies to matrix mode only; demand mode selects by GCV")
    demand = load_demand_csv(_path(cfg, "demand_csv"))
    temps = load_temperature_csv(_path(cfg, "temperature_csv"))
    dom = cfg.get("temp_domain")
    auto_domain = dom is None
    if auto_domain:
        # placeholder covering all data; per-window knots are respecified later
        values = list(temps.values())
        if not values:
            raise ConfigError("temperature file holds no rows")
        dom = (min(values) - 0.5, max(values) + 0.5)
    elif len(_numbers(dom, "temp_domain")) != 2:
        raise ConfigError("temp_domain must be [lo, hi]")
    spec = DemandModelSpec(
        t_lags=_typed(cfg.get("t_lags", 1), "an integer", "t_lags"),
        hour_basis=SplineBasisSpec.uniform_cyclic(*_basis_ints(cfg, "hour_basis", 1), 0.0, 24.0),
        temp_basis=SplineBasisSpec.uniform(
            *_basis_ints(cfg, "temp_basis", 6), float(dom[0]), float(dom[1])
        ),
    )
    if cfg.get("candidates", "structural") == "structural":
        candidates = structural_candidates(spec)
    else:
        candidates = _candidates(cfg, spec.p)
    targets = _demand_targets(cfg)
    window = _typed(cfg.get("window_days", 15), "an integer", "window_days")
    if window < spec.t_lags + 1:
        raise ConfigError(f"window_days must exceed t_lags={spec.t_lags}")
    return demand, temps, spec, candidates, targets, window, auto_domain


def _demand_targets(cfg: dict) -> list:
    import datetime as _dt

    raw = _require(cfg, "targets")
    pairs = []
    if isinstance(raw, dict):
        for d in _typed(_field(raw, "dates", "targets"), "a JSON list", "targets.dates"):
            for h in _typed(_field(raw, "hours", "targets"), "a JSON list", "targets.hours"):
                pairs.append((d, h))
    else:
        for i, entry in enumerate(_typed(raw, "a JSON list", "targets")):
            pairs.append(
                (_field(entry, "date", f"targets[{i}]"), _field(entry, "hour", f"targets[{i}]"))
            )
    out = []
    for d, h in pairs:
        try:
            day = _dt.date.fromisoformat(str(d))
        except ValueError:
            raise ConfigError(f"bad target date {d!r}") from None
        if not 1 <= _typed(h, "an integer", "target hour") <= 24:
            raise ConfigError(f"target hour must be in 1..24, got {h}")
        out.append((day, h))
    if not out:
        raise ConfigError("no targets configured")
    return out


def cmd_fit(cfg: dict, outdir: Path) -> int:
    mode = _mode(cfg)
    if mode == "matrix":
        data = _load_train_matrix(cfg)
        x_targets, truths = _load_targets_matrix(cfg, data.p)
        selector = _selector(cfg, _candidates(cfg, data.p))
        rows, surface, dist = run_matrix_fit(
            data,
            x_targets,
            truths,
            selector,
            _cv_cfg(cfg),
            cfg["b"],
            float(cfg["alpha"]),
            cfg["seed"],
            threads=cfg["threads"],
        )
        surface_path = outdir / "surface.csv"
        report = ForecastReport(
            rows=rows,
            alpha=float(cfg["alpha"]),
            seed=cfg["seed"],
            b=cfg["b"],
            mode=mode,
            selected=(dist.sigma2, dist.gamma),
            surface_path=surface_path.name,
        )
    else:
        demand, temps, spec, candidates, targets, window, auto_dom = _demand_inputs(cfg)
        rows = run_demand_fit(
            demand,
            temps,
            spec,
            targets,
            window,
            candidates,
            _lambda_grid(cfg),
            _cv_cfg(cfg),
            cfg["b"],
            float(cfg["alpha"]),
            cfg["seed"],
            threads=cfg["threads"],
            auto_temp_domain=auto_dom,
        )
        report = ForecastReport(
            rows=rows, alpha=float(cfg["alpha"]), seed=cfg["seed"], b=cfg["b"], mode=mode
        )
    # the summary refuses non-finite accuracies, so it is computed before any file is written
    summary = report_summary(report, "fit", cfg["threads"])
    if mode == "matrix":
        write_surface_csv(surface, surface_path)
    write_report_csv(report, outdir / "report.csv")
    write_json(outdir / "summary.json", summary)
    return 0


def cmd_predict(cfg: dict, outdir: Path) -> int:
    mode = _mode(cfg)
    dist_cfg = _require(cfg, "distribution")
    dist = ResamplingDistribution(
        gamma=_number(_field(dist_cfg, "gamma", "distribution"), "distribution.gamma"),
        sigma2=_number(_field(dist_cfg, "sigma2", "distribution"), "distribution.sigma2"),
    )
    if mode == "matrix":
        data = _load_train_matrix(cfg)
        x_targets, truths = _load_targets_matrix(cfg, data.p)
        selector = _selector(cfg, _candidates(cfg, data.p))
        rows = run_matrix_eval(
            data,
            x_targets,
            truths,
            dist,
            selector,
            cfg["b"],
            float(cfg["alpha"]),
            cfg["seed"],
            threads=cfg["threads"],
        )
    else:
        demand, temps, spec, candidates, targets, window, auto_dom = _demand_inputs(cfg)
        rows = run_demand_fit(
            demand,
            temps,
            spec,
            targets,
            window,
            candidates,
            _lambda_grid(cfg),
            None,
            cfg["b"],
            float(cfg["alpha"]),
            cfg["seed"],
            threads=cfg["threads"],
            dist_override=dist,
            auto_temp_domain=auto_dom,
        )
    report = ForecastReport(
        rows=rows,
        alpha=float(cfg["alpha"]),
        seed=cfg["seed"],
        b=cfg["b"],
        mode=mode,
        selected=(dist.sigma2, dist.gamma),
    )
    summary = report_summary(report, "predict", cfg["threads"])
    write_report_csv(report, outdir / "report.csv")
    write_json(outdir / "summary.json", summary)
    return 0


def cmd_select_dist(cfg: dict, outdir: Path) -> int:
    if _mode(cfg) != "matrix":
        raise ConfigError(
            "select-dist runs on matrix-mode data; demand-mode fits select a "
            "distribution per rolling window inside 'fit'"
        )
    data = _load_train_matrix(cfg)
    selector = _selector(cfg, _candidates(cfg, data.p))
    grid = resolve_cv_grid(_cv_cfg(cfg), data, derive_seed(cfg["seed"], 1, 0))
    surface = cv_error_surface(data, grid, selector, threads=cfg["threads"])
    dist = select_distribution(surface)
    write_surface_csv(surface, outdir / "surface.csv")
    write_json(
        outdir / "summary.json",
        {
            "command": "select-dist",
            "mode": "matrix",
            "seed": cfg["seed"],
            "threads": cfg["threads"],
            "selected_sigma2": dist.sigma2,
            "selected_gamma": dist.gamma,
            "surface_csv": "surface.csv",
        },
    )
    return 0


def cmd_sweep_sigma(cfg: dict, outdir: Path) -> int:
    if _mode(cfg) != "matrix":
        raise ConfigError("sweep-sigma runs on matrix-mode data")
    sweep = _numbers(_require(cfg, "sigma2_sweep"), "sigma2_sweep")
    if not sweep:
        raise ConfigError("sigma2_sweep must be nonempty")
    gamma = _number(_require(cfg, "gamma"), "gamma")
    data = _load_train_matrix(cfg)
    x_targets, truths = _load_targets_matrix(cfg, data.p)
    selector = _selector(cfg, _candidates(cfg, data.p))
    curve = run_sigma_sweep(
        data,
        x_targets,
        truths,
        sweep,
        gamma,
        selector,
        cfg["b"],
        float(cfg["alpha"]),
        cfg["seed"],
        threads=cfg["threads"],
    )
    write_csv(
        outdir / "sweep.csv",
        ["sigma2", "mspe", "coverage"],
        [[fmt(c["sigma2"]), fmt(c["mspe"]), fmt(c["coverage"])] for c in curve],
    )
    write_json(
        outdir / "summary.json",
        {
            "command": "sweep-sigma",
            "mode": "matrix",
            "gamma": gamma,
            "seed": cfg["seed"],
            "threads": cfg["threads"],
            "alpha": float(cfg["alpha"]),
            "b": cfg["b"],
            "n_points": len(curve),
            "sweep_csv": "sweep.csv",
        },
    )
    return 0


def cmd_simulate(cfg: dict, outdir: Path) -> int:
    study_cfg = _typed(cfg.get("study", {}), "a JSON object", "study")
    ints = {"n": 30, "true_model_j": 2, "reps": 100, "b": cfg["b"]}
    kwargs = {k: _typed(study_cfg.get(k, v), "an integer", f"study.{k}") for k, v in ints.items()}
    for key in ("sigma2_sweep", "gamma_sweep", "lambda_grid"):
        if study_cfg.get(key) is not None:
            kwargs[key] = _numbers(study_cfg[key], f"study.{key}")
    study = StudyConfig(
        noise_sd=_number(study_cfg.get("noise_sd", 5.0), "study.noise_sd"),
        master_seed=cfg["seed"],
        **kwargs,
    )
    result = run_study(study, threads=cfg["threads"])
    mse_path, freq_path = write_study_csvs(result, outdir)
    summary = {
        "command": "simulate",
        "n": study.n,
        "true_model_j": study.true_model_j,
        "reps": study.reps,
        "b": study.b,
        "seed": cfg["seed"],
        "threads": cfg["threads"],
        "ridge_baseline_mse": result.ridge_baseline_mse,
        "mse_csv": mse_path.name,
        "freq_csv": freq_path.name,
    }
    if _typed(cfg.get("svg", False), "true or false", "svg"):
        svg_path = outdir / "study_mse.svg"
        render_mse_svg(result, svg_path)
        summary["svg"] = svg_path.name
    write_json(outdir / "summary.json", summary)
    return 0


_COMMANDS = {
    "fit": cmd_fit,
    "predict": cmd_predict,
    "select-dist": cmd_select_dist,
    "sweep-sigma": cmd_sweep_sigma,
    "simulate": cmd_simulate,
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootsmooth",
        description="Bootstrap-smoothed regression prediction after model selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("fit", "CV-select the resampling distribution, then fit and predict"),
        ("predict", "fit and predict with a fixed resampling distribution"),
        ("select-dist", "cross-validate the (sigma2, gamma) grid only"),
        ("sweep-sigma", "accuracy curve over a sigma2 list at fixed gamma"),
        ("simulate", "synthetic study of selection frequency and estimation MSE"),
    ]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", required=True, help="JSON config file")
        sp.add_argument("--seed", type=int, default=None, help="override config seed")
        sp.add_argument("--threads", type=int, default=None, help="override worker threads")
        sp.add_argument("--alpha", type=float, default=None, help="override interval alpha")
        sp.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _common(_load_config(args.config), args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        # Floating-point warnings would land on stderr ahead of the one-line
        # message; a non-finite result is refused where it leaves the engine.
        with np.errstate(all="ignore"):
            return _COMMANDS[args.command](cfg, outdir)
    except (ConfigError, ValueError) as exc:
        # library constructors validate config values by raising ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:  # console-script shim
    sys.exit(main())
