"""Command-line entry point: train, predict, evaluate, crossval, export-maps.

Every run resolves its full effective configuration (defaults, config file,
explicit flags, master seed) into a record that suffices to reproduce the
run: commands with a primary output file write it as a JSON sidecar, and
evaluation reports carry it as a trailing ``resolved_config`` line. Exit
codes: 0 success, 1 usage or validation error, 2 runtime or data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple, get_type_hints

import numpy as np

from .datasets import (
    DatasetError,
    LabeledDataset,
    k_fold,
    load_csv,
    minmax_scale,
)
from .metrics import (
    EvaluationReport,
    average_accuracy,
    cohens_kappa,
    confusion,
    mean_report,
    overall_accuracy,
    r_squared,
)
from .model_io import SomModel, load_model, save_model
from .schedules import has_type
from .som import SomConfig, _fit_maps, bmu_histogram
from .supervised import _fit_classifiers, _fit_regressors
from .seeding import PHASES, SEED_SCHEME, phase_rng

# each head kind, and the kind of labels its runs read
_LABEL_KINDS = {"none": "none", "regression": "continuous", "classification": "categorical"}
HEAD_KINDS = tuple(_LABEL_KINDS)


def _schedule_keys(name: str) -> dict[str, str]:
    """Flat configuration key -> ScheduleSpec field, for schedule field ``name``."""
    prefix = name.removesuffix("_schedule")
    return {name: "kind", f"{prefix}_start": "start", f"{prefix}_end": "end"}


def _config_options() -> dict[str, dict]:
    """argparse keywords of each configuration key, in SomConfig field order.

    The keys are SomConfig's fields, with each schedule flattened to its kind
    (``lr_schedule``), ``lr_start`` and ``lr_end``, plus the CLI's own
    ``minmax_scale``. Every value is optional; SomConfig holds the defaults.
    """
    switch = {"action": argparse.BooleanOptionalAction, "default": None}
    types = get_type_hints(SomConfig)
    options = {}
    for f in fields(SomConfig):
        if "kinds" in f.metadata:
            kind, start, end = _schedule_keys(f.name)
            options.update({kind: {"choices": f.metadata["kinds"]},
                            start: {"type": float}, end: {"type": float}})
        elif types[f.name] is bool:
            options[f.name] = switch
        elif "choices" in f.metadata:
            options[f.name] = {"choices": f.metadata["choices"]}
        else:
            options[f.name] = {"type": types[f.name]}
    options["minmax_scale"] = switch
    return options


_CONFIG_OPTIONS = _config_options()


class UsageError(Exception):
    """Bad flags or configuration values; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors, under the prog of the
    subcommand; the contract wants 1, and every error line led by ``somkit:``."""

    def error(self, message):
        self.exit(1, f"somkit: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="somkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        options = {**command.params,
                   "config": {"help": "JSON file with any of the configuration keys"}}
        if name in _TRAINING_COMMANDS:
            options.update(_CONFIG_OPTIONS)
        for key, keywords in options.items():
            p.add_argument("--" + key.replace("_", "-"), **keywords)
    return parser


def _read_config_file(args: argparse.Namespace) -> dict:
    """The config file's values by key, each of its ``_KEY_TYPES`` type and, if
    its flag has choices, one of them; else a usage error names the file."""
    config_path = getattr(args, "config", None)
    if not config_path:
        return {}
    path = Path(config_path)
    if not path.is_file():
        raise UsageError(f"no such config file: {path}")
    try:
        from_file = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"{path}: not valid JSON: {exc}")
    if not isinstance(from_file, dict):
        raise UsageError(f"{path}: must hold a JSON object")
    unknown = set(from_file) - set(_KEY_TYPES)
    if unknown:
        raise UsageError(f"{path}: unknown configuration keys: {sorted(unknown)}")
    if "radius_start" in from_file and from_file["radius_start"] is None:
        del from_file["radius_start"]  # asks for the default, which the grid size sets
    options = {**_CONFIG_OPTIONS, **_COMMANDS[args.command].params}
    for key, value in from_file.items():
        kind, choices = _KEY_TYPES[key], options.get(key, {}).get("choices")
        if not has_type(value, kind):
            raise UsageError(f"{path}: {key} must be of type {kind.__name__}, got {value!r}")
        if choices and value not in choices:
            raise UsageError(f"{path}: {key} must be one of {choices}, got {value!r}")
    return from_file


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"missing required value(s): {flags}")


def _config_of(**values) -> tuple[bool, SomConfig]:
    """The minmax_scale switch and the SomConfig of configuration ``values``."""
    scale = values.pop("minmax_scale", False)
    schedules = {
        f.name: {attr: values.pop(key)
                 for key, attr in _schedule_keys(f.name).items() if key in values}
        for f in fields(SomConfig) if "kinds" in f.metadata
    }
    config = SomConfig(**values)
    for name, parts in schedules.items():
        try:
            schedules[name] = replace(getattr(config, name), **parts)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
    return scale, replace(config, **schedules)


def _validated_config(args: argparse.Namespace) -> tuple[bool, SomConfig]:
    """The minmax_scale switch and the SomConfig of the configuration values.

    Each flag left out takes the config file's value, if it has one; an
    absent value takes SomConfig's default. A value SomConfig rejects is a
    usage error, which names the config file if the flags alone are accepted.
    """
    def given():
        return {key: getattr(args, key) for key in _CONFIG_OPTIONS
                if getattr(args, key, None) is not None}

    flags = given()
    for key, value in _read_config_file(args).items():
        if getattr(args, key, None) is None:
            setattr(args, key, value)
    try:
        return _config_of(**given())
    except ValueError as exc:
        error = exc
    try:
        _config_of(**flags)
    except ValueError:
        raise UsageError(str(error)) from error
    raise UsageError(f"{Path(args.config)}: {error}") from error


def _resolved_record(args: argparse.Namespace, config: SomConfig,
                     scale: bool | None = None) -> dict:
    """The command's parameters, the seed scheme and ``config``; ``scale`` if it trains."""
    params = _COMMANDS[args.command].params
    record = {key: getattr(args, key) for key in params if key != "resolved_config"}
    if scale is not None:
        record["minmax_scale"] = scale
    record.update(command=args.command, seed_scheme=SEED_SCHEME, seed_phases=PHASES,
                  som_config=asdict(config))
    return record


def _write_sidecar(args: argparse.Namespace, anchor: str | Path, config: SomConfig,
                   scale: bool | None = None) -> None:
    """The run's resolved-config record, at ``--resolved-config`` or next to ``anchor``."""
    path = Path(args.resolved_config or Path(anchor).with_suffix(".resolved.json"))
    record = _resolved_record(args, config, scale)
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_report(args: argparse.Namespace, report: EvaluationReport, config: SomConfig,
                  scale: bool | None = None) -> None:
    """``report`` and its trailing resolved-config line, to ``--output`` or stdout."""
    record = _resolved_record(args, config, scale)
    text = report.render() + "\nresolved_config: " + json.dumps(record, sort_keys=True)
    if args.output:
        Path(args.output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _load_for_model(path: str, label_column: str | None, head_kind: str) -> LabeledDataset:
    """The data file's features and the labels a ``head_kind`` head reads;
    without a head, a label column is left out of the features unread."""
    label_kind = _LABEL_KINDS[head_kind]
    if label_kind != "none" and not label_column:
        raise UsageError(f"a {head_kind} head needs --label-column")
    return load_csv(path, label_column or None, label_kind)


def _train_models(config: SomConfig, datasets: list[LabeledDataset], head_kind: str,
                  scale: bool, keys: list[tuple]) -> list[SomModel]:
    """A model trained on each of ``datasets``, model i from the streams
    ``phase_rng(config.seed, phase, *keys[i])``. The maps train together, in
    one loop, and so do the heads; each model equals a run of its own."""
    scaled = [minmax_scale(data) if scale else (data, None) for data in datasets]
    Xs, ys = [data.X for data, _ in scaled], [data.y for data, _ in scaled]

    def rngs(phase):
        return [phase_rng(config.seed, phase, *key) for key in keys]

    grids, cov_invs = zip(*_fit_maps(Xs, config, rngs("unsupervised"), [None] * len(Xs)))
    fit_heads = {"regression": _fit_regressors, "classification": _fit_classifiers}
    heads = (fit_heads[head_kind](grids, Xs, ys, config, rngs("supervised"), cov_invs)
             if head_kind in fit_heads else [None] * len(Xs))
    return [SomModel(config, grid, cov_inv, scaling, head)
            for grid, cov_inv, (_, scaling), head in zip(grids, cov_invs, scaled, heads)]


def _evaluate_model(model: SomModel, data: LabeledDataset, section: str) -> EvaluationReport:
    predictions = model.predict(data.X)
    if model.head_kind == "regression":
        return EvaluationReport(section, {"r_squared": r_squared(data.y, predictions)})
    cm = confusion(data.y, predictions)
    return EvaluationReport(
        section,
        {
            "overall_accuracy": overall_accuracy(cm),
            "average_accuracy": average_accuracy(cm),
            "cohens_kappa": cohens_kappa(cm),
        },
        cm=cm,
    )


def _write_csv(path: Path, header: list[str], values: np.ndarray) -> None:
    """One row per entry of ``values``, led by its row and column if ``values`` is 2-d.

    ``tolist`` gives Python numbers and strings, which ``csv`` writes exactly
    (a float by its ``repr``).
    """
    if values.ndim == 2:
        rows = [[r, c, v] for r, line in enumerate(values.tolist()) for c, v in enumerate(line)]
    else:
        rows = [[v] for v in values.tolist()]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_train(args: argparse.Namespace, scale: bool, config: SomConfig) -> int:
    data = _load_for_model(args.data, args.label_column, args.head)
    (model,) = _train_models(config, [data], args.head, scale, [()])
    save_model(model, args.model)
    _write_sidecar(args, args.model, config, scale)
    return 0


def cmd_predict(args: argparse.Namespace, *_) -> int:
    model = load_model(args.model)
    data = _load_for_model(args.data, args.label_column, "none")
    _write_csv(Path(args.output), ["prediction"], model.predict(data.X))
    _write_sidecar(args, args.output, model.config)
    return 0


def cmd_evaluate(args: argparse.Namespace, *_) -> int:
    model = load_model(args.model)
    if model.head_kind == "none":
        raise ValueError("model has no supervised head, nothing to evaluate")
    data = _load_for_model(args.data, args.label_column, model.head_kind)
    report = EvaluationReport(f"evaluation: {model.head_kind}")
    report.folds.append(_evaluate_model(model, data, "test"))
    if args.train_data:
        train = _load_for_model(args.train_data, args.label_column, model.head_kind)
        report.folds.append(_evaluate_model(model, train, "train"))
    _write_report(args, report, model.config)
    return 0


def cmd_crossval(args: argparse.Namespace, scale: bool, config: SomConfig) -> int:
    """k-fold cross-validation. Every fold is split, scaled and trained before
    any is evaluated, by the one training function of ``train``: fold i
    draws from the streams keyed ``(i,)``, so each model equals a run of
    that fold alone."""
    if args.k < 2:
        raise UsageError(f"k must be >= 2, got {args.k}")
    data = _load_for_model(args.data, args.label_column, args.head)
    folds = k_fold(data, args.k, phase_rng(config.seed, "fold"))
    models = _train_models(config, [train for train, _ in folds], args.head, scale,
                           [(i,) for i in range(args.k)])
    fold_reports = []
    for i, ((train, test), model) in enumerate(zip(folds, models)):
        test_metrics = _evaluate_model(model, test, "test")
        train_metrics = _evaluate_model(model, train, "train")
        fold_report = EvaluationReport(
            f"fold {i}",
            {
                **{f"{name}_test": v for name, v in test_metrics.metrics.items()},
                **{f"{name}_train": v for name, v in train_metrics.metrics.items()},
            },
            cm=test_metrics.cm,
        )
        fold_reports.append(fold_report)
    report = mean_report(f"crossval mean over {args.k} folds: {args.head}", fold_reports)
    _write_report(args, report, config, scale)
    return 0


def cmd_export_maps(args: argparse.Namespace, *_) -> int:
    model = load_model(args.model)
    data = _load_for_model(args.data, args.label_column, "none")
    counts = bmu_histogram(
        model.grid, model.prepare(data.X), model.config.metric, model.cov_inv
    )
    # made only now, so that a command that fails leaves no directory
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "bmu_histogram.csv", ["row", "column", "count"], counts)
    if model.head is None:
        print("model has no supervised head; skipped output_map.csv", file=sys.stderr)
    else:
        _write_csv(out_dir / "output_map.csv", ["row", "column", "value"], model.head.labels)
    _write_sidecar(args, out_dir / "maps", model.config)
    return 0


class _Command(NamedTuple):
    """A command: its handler, its help line, its own flags, the keys it
    requires and its defaults.

    ``params`` maps each flag's key to its argparse keywords, in flag order.
    The keys are also the run keys a config file may set for the command, of
    the flag's type and one of its choices, and the entries of its
    resolved-config record. :func:`main` merges the flags and the config file,
    gives each key of ``defaults`` still unset its default, checks that every
    key of ``required`` is set and then calls ``run(args, scale, config)``
    with the minmax_scale switch and the SomConfig of the merged values.
    """

    run: Callable[[argparse.Namespace, bool, SomConfig], int]
    help: str
    params: dict[str, dict]
    required: tuple[str, ...]
    defaults: dict = {}


_LABEL_HELP = "column to exclude from the features, if present"
_REPORT_HELP = "report file; stdout when omitted"
_COMMANDS = {
    "train": _Command(cmd_train, "train a map and optional supervised head", {
        "data": {"help": "training CSV with header row"},
        "label_column": {},
        "head": {"choices": HEAD_KINDS},
        "model": {"help": "output model file (JSON)"},
        "resolved_config": {"help": "where to write the resolved-config record"},
    }, ("data", "model"), {"head": "none"}),
    "predict": _Command(cmd_predict, "predict with a trained model", {
        "model": {},
        "data": {},
        "label_column": {"help": _LABEL_HELP},
        "output": {"help": "predictions CSV"},
        "resolved_config": {},
    }, ("model", "data", "output")),
    "evaluate": _Command(cmd_evaluate, "score a trained model on labeled data", {
        "model": {},
        "data": {"help": "labeled test CSV"},
        "label_column": {},
        "train_data": {"help": "optional labeled training CSV for train metrics"},
        "output": {"help": _REPORT_HELP},
    }, ("model", "data", "label_column")),
    "crossval": _Command(cmd_crossval, "k-fold cross-validation", {
        "data": {},
        "label_column": {},
        "head": {"choices": ("regression", "classification")},
        "k": {"type": int},
        "output": {"help": _REPORT_HELP},
    }, ("data", "label_column", "head"), {"k": 5}),
    "export-maps": _Command(cmd_export_maps, "export BMU histogram and node output map", {
        "model": {},
        "data": {},
        "label_column": {"help": _LABEL_HELP},
        "out_dir": {},
        "resolved_config": {},
    }, ("model", "data", "out_dir")),
}
# the commands that train a map and so take the configuration flags
_TRAINING_COMMANDS = ("train", "crossval")
# the type of each key a config file may hold, the configuration keys and
# every command's run keys: its flag's type, bool for a switch, else str
_KEY_TYPES = {key: options.get("type", bool if "action" in options else str)
              for table in (_CONFIG_OPTIONS, *(c.params for c in _COMMANDS.values()))
              for key, options in table.items()}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = _COMMANDS[args.command]
    try:
        scale, config = _validated_config(args)
        for key, value in command.defaults.items():
            if getattr(args, key) is None:
                setattr(args, key, value)
        _require(args, *command.required)
        return command.run(args, scale, config)
    except UsageError as exc:
        print(f"somkit: error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, FileNotFoundError) as exc:
        print(f"somkit: data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"somkit: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        what = str(exc) or "an allocation failed"
        print(f"somkit: error: out of memory: {what}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
