"""Command-line entry points.

Subcommands: ``fit``, ``predict``, ``select-dist``, ``sweep-sigma``,
``simulate``.  Every run takes a JSON config (``--config``) with optional
flag overrides (``--seed``, ``--threads``, ``--alpha``, ``--out``) and writes
its outputs into the ``--out`` directory.

Exit codes: 0 success, 2 configuration error (and a run out of memory, which
names the replicate counts), 3 ingestion error, 4 numerical failure.  Any
other exit (1, with a traceback) is a defect.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, IngestionError, NumericalError, SingularDesignError
from .forecast import (
    TEMP_PAD,
    accuracy,
    demand_problems,
    load_matrix_csv,
    run_forecasts,
    run_sigma_sweep,
    structural_candidates,
    tune_distribution,
    write_report_csv,
)
from .rng import MAX_REPLICATES
from .selection import CandidateModel, Dataset, SelectorConfig
from .simulation import StudyConfig, render_mse_svg, run_study, write_study_csvs
from .smoothing import ResamplingDistribution
from .splines import DemandModelSpec, SplineBasisSpec, _parse_hour, load_demand_csv, load_temperature_csv
from .tabular import fmt, iso_date, staged_outputs, write_csv, write_json
from .tuning import CvGrid, write_surface_csv


@dataclass(frozen=True)
class RunConfig:
    """Settings every command takes: the config's top-level seed, threads, alpha and b.

    Every run is serial.  ``threads`` is checked and written to
    ``summary.json``; it reaches nothing else.
    """

    seed: int = 0
    threads: int = 1
    alpha: float = 0.05
    b: int = 200

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed}")
        if self.threads < 1:
            raise ConfigError("threads must be an integer >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.b < 1:
            raise ConfigError("b must be an integer >= 1")
        if self.b > MAX_REPLICATES:
            raise ConfigError(f"b must be at most 2**32, the replicates a seed's streams index, got {self.b}")


@dataclass(frozen=True)
class BasisSize:
    """A demand config's ``hour_basis`` or ``temp_basis``: its spline count and degree."""

    n_basis: int
    degree: int = 3


@dataclass(frozen=True)
class DemandTargets:
    """A demand config's ``targets[i]`` object, or its ``targets`` object, whose ``dates`` and
    ``hours`` lists are read as tuples; ``pairs`` is every date, parsed, at every hour."""

    date: str
    hour: int
    pairs: tuple = field(init=False)

    def __post_init__(self):
        dates, hours = ((v if isinstance(v, tuple) else (v,)) for v in (self.date, self.hour))
        days = []
        for d in dates:
            try:
                days.append(iso_date(d))
            except ValueError:
                raise ConfigError(f"bad target date {d!r}") from None
        hours = [_parse_hour(h) for h in hours]
        object.__setattr__(self, "pairs", tuple((d, h) for d in days for h in hours))


# The JSON form of each type a config value is read as: the field types of
# the config dataclasses, plus the lists and objects that hold them.
_JSON_TYPES = {
    "int": ("an integer", (int,)),
    "float": ("a number", (int, float)),
    "bool": ("true or false", (bool,)),
    "str": ("a string", (str,)),
    "str | int": ("a string or an integer", (str, int)),
    "list": ("a JSON list", (list,)),
    "dict": ("a JSON object", (dict,)),
}

# The config keys of each config object read into a dataclass, and of the
# top-level values read one by one.  A key names its field, except as
# _FIELD_NAMES says; a key named as its field's plural holds a list of them.
_RUN_KEYS = ("seed", "threads", "alpha", "b")
_SELECTOR_KEYS = ("lambda_grid",)
_CV_KEYS = (
    "k", "sigma2_candidates", "sigma2_count", "sigma2_span", "gamma_candidates",
    "b_inner", "fold_mode",
)
_STUDY_KEYS = ("n", "true_model_j", "noise_sd", "reps", "b", "sigma2_sweep", "gamma_sweep", "lambda_grid")
_DISTRIBUTION_KEYS = ("gamma", "sigma2")
_BASIS_KEYS = ("degree", "n_basis")
_FIELD_NAMES = {"dates": "date", "hours": "hour"}
_MATRIX_KEYS = ("train_csv", "targets_csv", "candidates")
_DEMAND_KEYS = (
    "demand_csv", "temperature_csv", "temp_domain", "hour_basis", "t_lags", "temp_basis",
    "window_days", "targets",
)
_COMMAND_KEYS = ("mode", "cv", "distribution", "sigma2_sweep", "gamma", "study", "svg")
# Every top-level key that some command reads.  It is one set for every
# command, as one config file serves fit, predict, select-dist and sweep-sigma.
_CONFIG_KEYS = frozenset(_RUN_KEYS + _SELECTOR_KEYS + _MATRIX_KEYS + _DEMAND_KEYS + _COMMAND_KEYS)


def _value(value, kind: str, name: str):
    """``value`` read as the type ``kind``, named ``name`` in errors.

    ``X | None`` admits null; nothing else does.  A bool is not an integer
    or a number, a number is read as a float and ``tuple[T, ...]`` as a
    tuple of ``T``.
    """
    if kind.endswith(" | None"):
        if value is None:
            return None
        kind = kind[: -len(" | None")]
    if kind.startswith("tuple["):
        item = kind.removeprefix("tuple[").removesuffix(", ...]")
        return tuple(_value(v, item, f"{name}[{i}]") for i, v in enumerate(_value(value, "list", name)))
    described, types = _JSON_TYPES[kind]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise ConfigError(f"{name} must be {described}, got {json.dumps(value)}")
    if kind == "float":
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"{name} is out of range for a float, got {value}") from None
    return value


def _read(cls, raw, name: str, keys: tuple[str, ...], **given):
    """``cls(**given, ...)`` with each of ``keys`` in the config object ``raw`` read as its field's type.

    An absent key leaves its field to ``given`` or to the field's default;
    with neither it is a missing key.  A nested object (``name`` given)
    refuses any key not in ``keys``; the top-level config holds the keys of
    many readers and is checked against all of them when it is loaded.  The
    errors of ``cls`` itself name the object and the key (:func:`_built`).
    """
    prefix = f"{name}." if name else ""
    raw = _value(raw, "dict", name)
    if name:
        _refuse_unknown(raw, keys, f"{name}: ")
    by_name = {f.name: f for f in fields(cls)}
    for key in keys:
        f = by_name[_FIELD_NAMES.get(key, key)]
        if key in raw:
            kind = f"tuple[{f.type}, ...]" if key == f"{f.name}s" else f.type
            given[f.name] = _value(raw[key], kind, prefix + key)
        elif f.name not in given and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{name}: missing key '{key}'")
    return _built(name, keys, cls, **given)


def _built(name: str, keys: tuple[str, ...], build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ``ValueError`` or ``ConfigError`` from it is a ``ConfigError``
    led by ``name: `` (when ``name`` is set), whose first word, if a field of ``keys``, is its key."""
    try:
        return build(*args, **kwargs)
    except (ConfigError, ValueError) as exc:
        head, space, rest = str(exc).partition(" ")
        head = {_FIELD_NAMES.get(key, key): key for key in keys}.get(head, head)
        raise ConfigError(f"{name}: " * bool(name) + head + space + rest) from None


def _refuse_unknown(raw: dict, keys, context: str) -> None:
    """A ``ConfigError`` naming the first key of ``raw`` not in ``keys``."""
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{context}unknown key '{key}'")


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    _refuse_unknown(cfg, _CONFIG_KEYS, "")
    return cfg


def _run_config(cfg: dict, args) -> RunConfig:
    flags = {key: getattr(args, key) for key in ("seed", "threads", "alpha")}
    overrides = {key: value for key, value in flags.items() if value is not None}
    return _read(RunConfig, {**cfg, **overrides}, "", _RUN_KEYS)


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
    return _value(_require(cfg, key), "str", key)


def _candidates(cfg: dict, p: int) -> tuple[CandidateModel, ...]:
    raw = cfg.get("candidates")
    if raw is None:
        return (CandidateModel("full", tuple(range(p))),)
    return tuple(
        _read(CandidateModel, entry, f"candidates[{i}]", ("id", "columns"))
        if isinstance(entry, dict)
        else CandidateModel(i, _value(entry, "tuple[int, ...]", f"candidates[{i}]"))
        for i, entry in enumerate(_value(raw, "list", "candidates"))
    )


def _selector(cfg: dict, candidates) -> SelectorConfig:
    return _read(SelectorConfig, cfg, "", _SELECTOR_KEYS, candidates=candidates)


def _cv_grid(cfg: dict, run: RunConfig) -> CvGrid:
    return _read(CvGrid, cfg.get("cv", {}), "cv", _CV_KEYS, b_inner=run.b)


def _checked_grid(cfg: dict, run: RunConfig, sizes) -> CvGrid:
    """The cv grid of a run that tunes, once ``sizes`` are checked before any fit.

    ``sizes`` is ``(n, rows, p, columns)``: each problem's rows and design columns, and their
    names.  Tuning needs ``cv.k`` at most ``n`` and ``p`` at most the rows of the smallest CV
    training block.
    """
    n, rows, p, columns = sizes
    grid = _cv_grid(cfg, run)
    if grid.k > n:
        raise ConfigError(f"cv.k must be at most the {n} rows CV tunes on ({rows}), got {grid.k}")
    held = -(-n // grid.k)
    if p > n - held:
        raise ConfigError(
            f"the {p} design columns ({columns}) exceed the {n - held} rows of the smallest CV "
            f"training block ({n} minus the {held} held out at cv.k={grid.k})"
        )
    return grid


def _matrix_inputs(cfg: dict, with_targets: bool = True):
    """A matrix config's selector, its one problem and the rows and columns it fits, as
    :func:`_demand_inputs` returns them; read in order: train CSV, targets CSV, candidates.

    Without targets the problem's target rows, labels and truths are None."""
    y, X, _ = load_matrix_csv(_path(cfg, "train_csv"))
    if y is None:
        raise ConfigError("train_csv must carry a leading 'y' column")
    data = Dataset(y, X)
    x_targets = labels = truths = None
    if with_targets:
        y, x_targets, _ = load_matrix_csv(_path(cfg, "targets_csv"))
        if x_targets.shape[1] != data.p:
            raise ConfigError(
                f"targets_csv has {x_targets.shape[1]} feature columns, training data has {data.p}"
            )
        labels = [str(t) for t in range(len(x_targets))]
        truths = None if y is None else list(y)
    sizes = (data.n, "the rows of train_csv", data.p, "the features of train_csv")
    return _selector(cfg, _candidates(cfg, data.p)), [(data, x_targets, labels, truths)], sizes


def _summary(command: str, run: RunConfig, **fields) -> dict:
    """A ``summary.json``: the command, the run's seed and threads, and ``fields``."""
    return {"command": command, "seed": run.seed, "threads": run.threads, **fields}


def _demand_inputs(cfg: dict):
    """The demand config's selector, its lazy problems and each window's rows and columns."""
    demand = load_demand_csv(_path(cfg, "demand_csv"))
    temps = load_temperature_csv(_path(cfg, "temperature_csv"))
    dom = _value(cfg.get("temp_domain"), "tuple[float, ...] | None", "temp_domain")
    auto_domain = dom is None
    if auto_domain:
        # placeholder covering all data; per-window knots are respecified later
        values = list(temps.values())
        if not values:
            raise ConfigError("temperature file holds no rows")
        dom = (min(values) - TEMP_PAD, max(values) + TEMP_PAD)
        if not np.isfinite(dom[1] - dom[0]):
            raise ConfigError(
                f"the temperatures in temperature_csv span [{min(values)}, {max(values)}], whose "
                "width is not finite; set temp_domain to a [lo, hi] of finite width"
            )
    elif len(dom) != 2:
        raise ConfigError("temp_domain must be [lo, hi]")
    elif not np.isfinite(dom[1] - dom[0]):
        raise ConfigError(f"temp_domain must have a finite width, got [{dom[0]}, {dom[1]}]")
    hour = _read(BasisSize, cfg.get("hour_basis", {"n_basis": 1}), "hour_basis", _BASIS_KEYS)
    if hour.n_basis >= 2:
        raise ConfigError(
            f"hour_basis.n_basis must be 1, got {hour.n_basis}: demand mode fits one regression "
            "per hour, where the hour functions are constants and their columns collinear"
        )
    hour_basis = _built(
        "hour_basis", (), SplineBasisSpec.uniform_cyclic, hour.degree, hour.n_basis, 0.0, 24.0
    )
    t_lags = _value(cfg.get("t_lags", 1), "int", "t_lags")
    temp = _read(BasisSize, cfg.get("temp_basis", {"n_basis": 6}), "temp_basis", _BASIS_KEYS)
    m = temp.n_basis
    window = _value(cfg.get("window_days", 15), "int", "window_days")
    if window < t_lags + 1:
        raise ConfigError(f"window_days must exceed t_lags={t_lags}")
    n, rows = window - t_lags, f"window_days={window} minus t_lags={t_lags}"
    # checked before the knots are built: each window fits t_lags + M columns on its n rows
    if t_lags + m >= n:
        raise ConfigError(
            f"t_lags + temp_basis.n_basis must be below the {n} rows each window fits "
            f"({rows}), got {t_lags} + {m}"
        )
    temp_basis = _built("temp_basis", (), SplineBasisSpec.uniform, temp.degree, m, *dom)
    spec = DemandModelSpec(t_lags, hour_basis, temp_basis)
    if cfg.get("candidates", "structural") == "structural":
        candidates = structural_candidates(spec)
    else:
        candidates = _candidates(cfg, spec.p)
    targets = _demand_targets(cfg)
    problems = demand_problems(demand, temps, spec, targets, window, auto_domain)
    columns = f"t_lags + temp_basis.n_basis = {t_lags} + {m}"
    return _selector(cfg, candidates), problems, (n, rows, t_lags + m, columns)


def _demand_targets(cfg: dict) -> list:
    raw = _require(cfg, "targets")
    if isinstance(raw, dict):
        targets = [_read(DemandTargets, raw, "targets", ("dates", "hours"))]
    else:
        items = enumerate(_value(raw, "list", "targets"))
        targets = [_read(DemandTargets, t, f"targets[{i}]", ("date", "hour")) for i, t in items]
    pairs = [pair for target in targets for pair in target.pairs]
    if not pairs:
        raise ConfigError("no targets configured")
    return pairs


def _forecast(
    command: str, cfg: dict, run: RunConfig, outdir: Path, dist: ResamplingDistribution | None
) -> int:
    """Fit and predict the targets: CV-tuned when ``dist`` is None, else at ``dist``."""
    mode = _mode(cfg)
    selector, problems, sizes = (_matrix_inputs if mode == "matrix" else _demand_inputs)(cfg)
    grid = _checked_grid(cfg, run, sizes) if dist is None else None
    try:
        rows, surfaces = run_forecasts(problems, selector, grid, dist, run.b, run.alpha, run.seed)
    except SingularDesignError as exc:
        raise SingularDesignError(f"{exc}; the design's columns are {sizes[3]}") from exc
    surface = None
    selected = (None, None) if dist is None else (dist.sigma2, dist.gamma)
    if dist is None and mode == "matrix":
        # a demand fit tunes one surface per target and writes none
        surface = surfaces[0]
        selected = surface.selected
    # accuracy refuses non-finite values, so the summary is computed before any file is written
    summary = _summary(
        command,
        run,
        mode=mode,
        alpha=run.alpha,
        b=run.b,
        n_targets=len(rows),
        **accuracy(rows),
        selected_sigma2=selected[0],
        selected_gamma=selected[1],
        surface_csv=None if surface is None else "surface.csv",
    )
    if surface is not None:
        write_surface_csv(surface, outdir / "surface.csv")
    write_report_csv(rows, outdir / "report.csv")
    write_json(outdir / "summary.json", summary)
    return 0


def cmd_fit(cfg: dict, run: RunConfig, outdir: Path) -> int:
    return _forecast("fit", cfg, run, outdir, None)


def cmd_predict(cfg: dict, run: RunConfig, outdir: Path) -> int:
    _mode(cfg)  # a bad mode is reported ahead of a bad distribution
    dist = _read(
        ResamplingDistribution, _require(cfg, "distribution"), "distribution", _DISTRIBUTION_KEYS
    )
    return _forecast("predict", cfg, run, outdir, dist)


def cmd_select_dist(cfg: dict, run: RunConfig, outdir: Path) -> int:
    if _mode(cfg) != "matrix":
        raise ConfigError(
            "select-dist runs on matrix-mode data; demand-mode fits select a "
            "distribution per rolling window inside 'fit'"
        )
    selector, [(data, *_)], sizes = _matrix_inputs(cfg, with_targets=False)
    grid = _checked_grid(cfg, run, sizes)
    surface, dist = tune_distribution(data, grid, selector, run.seed)
    write_surface_csv(surface, outdir / "surface.csv")
    write_json(
        outdir / "summary.json",
        _summary(
            "select-dist",
            run,
            mode="matrix",
            selected_sigma2=dist.sigma2,
            selected_gamma=dist.gamma,
            surface_csv="surface.csv",
        ),
    )
    return 0


def cmd_sweep_sigma(cfg: dict, run: RunConfig, outdir: Path) -> int:
    if _mode(cfg) != "matrix":
        raise ConfigError("sweep-sigma runs on matrix-mode data")
    sweep = _value(_require(cfg, "sigma2_sweep"), "tuple[float, ...]", "sigma2_sweep")
    if not sweep:
        raise ConfigError("sigma2_sweep must be nonempty")
    gamma = _value(_require(cfg, "gamma"), "float", "gamma")
    selector, [(data, x_targets, _, truths)], _ = _matrix_inputs(cfg)
    curve = run_sigma_sweep(data, x_targets, truths, sweep, gamma, selector, run.b, run.alpha, run.seed)
    write_csv(
        outdir / "sweep.csv",
        ["sigma2", "mspe", "coverage"],
        [[fmt(c["sigma2"]), fmt(c["mspe"]), fmt(c["coverage"])] for c in curve],
    )
    write_json(
        outdir / "summary.json",
        _summary(
            "sweep-sigma",
            run,
            mode="matrix",
            gamma=gamma,
            alpha=run.alpha,
            b=run.b,
            n_points=len(curve),
            sweep_csv="sweep.csv",
        ),
    )
    return 0


def cmd_simulate(cfg: dict, run: RunConfig, outdir: Path) -> int:
    study = _read(
        StudyConfig, cfg.get("study", {}), "study", _STUDY_KEYS, b=run.b, master_seed=run.seed
    )
    svg = _value(cfg.get("svg", False), "bool", "svg")
    result = run_study(study)
    mse_path, freq_path = write_study_csvs(result, outdir)
    summary = _summary(
        "simulate",
        run,
        n=study.n,
        true_model_j=study.true_model_j,
        reps=study.reps,
        b=study.b,
        ridge_baseline_mse=result.ridge_baseline_mse,
        mse_csv=mse_path.name,
        freq_csv=freq_path.name,
    )
    if svg:
        svg_path = outdir / "study_mse.svg"
        render_mse_svg(result, svg_path)
        summary["svg"] = svg_path.name
    write_json(outdir / "summary.json", summary)
    return 0


# Each command's entry point and its one-line description.
_COMMANDS = {
    "fit": (cmd_fit, "CV-select the resampling distribution, then fit and predict"),
    "predict": (cmd_predict, "fit and predict with a fixed resampling distribution"),
    "select-dist": (cmd_select_dist, "cross-validate the (sigma2, gamma) grid only"),
    "sweep-sigma": (cmd_sweep_sigma, "accuracy curve over a sigma2 list at fixed gamma"),
    "simulate": (cmd_simulate, "synthetic study of selection frequency and estimation MSE"),
}


def _parser() -> argparse.ArgumentParser:
    """One parser: the command, then the five flags that every command takes."""
    parser = argparse.ArgumentParser(
        prog="bootsmooth",
        description="Bootstrap-smoothed regression prediction after model selection.",
        epilog="commands:\n" + "".join(f"  {name:<13}{text}\n" for name, (_, text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="one of the commands below")
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--threads", type=int, default=None, help="override the threads value echoed to summary.json"
    )
    parser.add_argument("--alpha", type=float, default=None, help="override interval alpha")
    parser.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        run = _run_config(cfg, args)
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {outdir}: {exc.strerror or exc}") from None
        # Floating-point warnings would land on stderr ahead of the one-line
        # message; a non-finite result is refused where it leaves the engine.
        # The outputs appear together, once the last one is written.
        with np.errstate(all="ignore"), staged_outputs(outdir) as staging:
            return _COMMANDS[args.command][0](cfg, run, staging)
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
    except MemoryError:
        # a run's arrays grow with its replicate counts; numpy's message names a shape, not a key
        print(
            "config error: out of memory; the replicate counts b, cv.b_inner and study.b "
            "set the size of a run's arrays",
            file=sys.stderr,
        )
        return 2


def entrypoint() -> None:  # console-script shim
    sys.exit(main())
