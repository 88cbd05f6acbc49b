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
from typing import get_type_hints

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
from .som import SomConfig, bmu_histogram, fit_unsupervised
from .supervised import fit_classifier, fit_regressor
from .seeding import PHASES, SEED_SCHEME, phase_rng

HEAD_KINDS = ("none", "regression", "classification")


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

# Command parameters a RunConfig file may also carry, with the type of their
# flags; each command picks up the ones its flags define.
_RUN_KEYS = {
    "data": str,
    "label_column": str,
    "head": str,
    "model": str,
    "output": str,
    "out_dir": str,
    "train_data": str,
    "k": int,
    "resolved_config": str,
}


class UsageError(Exception):
    """Bad flags or configuration values; exits with code 1."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract wants 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with any of the configuration keys")
    for key, options in _CONFIG_OPTIONS.items():
        p.add_argument("--" + key.replace("_", "-"), **options)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="somkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a map and optional supervised head")
    p.add_argument("--data", help="training CSV with header row")
    p.add_argument("--label-column")
    p.add_argument("--head", choices=HEAD_KINDS)
    p.add_argument("--model", help="output model file (JSON)")
    p.add_argument("--resolved-config", help="where to write the resolved-config record")
    _add_config_flags(p)

    p = sub.add_parser("predict", help="predict with a trained model")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--label-column", help="column to exclude from the features, if present")
    p.add_argument("--output", help="predictions CSV")
    p.add_argument("--resolved-config")
    p.add_argument("--config", help="JSON file with any of the configuration keys")

    p = sub.add_parser("evaluate", help="score a trained model on labeled data")
    p.add_argument("--model")
    p.add_argument("--data", help="labeled test CSV")
    p.add_argument("--label-column")
    p.add_argument("--train-data", help="optional labeled training CSV for train metrics")
    p.add_argument("--output", help="report file; stdout when omitted")
    p.add_argument("--config", help="JSON file with any of the configuration keys")

    p = sub.add_parser("crossval", help="k-fold cross-validation")
    p.add_argument("--data")
    p.add_argument("--label-column")
    p.add_argument("--head", choices=("regression", "classification"))
    p.add_argument("--k", type=int)
    p.add_argument("--output", help="report file; stdout when omitted")
    _add_config_flags(p)

    p = sub.add_parser("export-maps", help="export BMU histogram and node output map")
    p.add_argument("--model")
    p.add_argument("--data")
    p.add_argument("--label-column", help="column to exclude from the features, if present")
    p.add_argument("--out-dir")
    p.add_argument("--resolved-config")
    p.add_argument("--config", help="JSON file with any of the configuration keys")

    return parser


def _read_config_file(args: argparse.Namespace) -> dict:
    config_path = getattr(args, "config", None)
    if not config_path:
        return {}
    path = Path(config_path)
    if not path.is_file():
        raise UsageError(f"no such config file: {path}")
    try:
        from_file = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not valid JSON: {exc}")
    if not isinstance(from_file, dict):
        raise UsageError(f"{path}: must hold a JSON object")
    unknown = set(from_file) - set(_CONFIG_OPTIONS) - set(_RUN_KEYS)
    if unknown:
        raise UsageError(f"{path}: unknown configuration keys: {sorted(unknown)}")
    for key, value in from_file.items():
        kind = _RUN_KEYS.get(key)
        if kind and (isinstance(value, bool) or not isinstance(value, kind)):
            raise UsageError(f"{path}: {key} must be of type {kind.__name__}, got {value!r}")
    return from_file


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"missing required value(s): {flags}")


def _merge_config(args: argparse.Namespace) -> dict:
    """The configuration values set by the config file or, winning, by flags.

    Run parameters the file supplies fill in omitted flags.
    """
    from_file = _read_config_file(args)
    if "radius_start" in from_file and from_file["radius_start"] is None:
        del from_file["radius_start"]  # asks for the default, which the grid size sets
    merged = {key: from_file[key] for key in _CONFIG_OPTIONS if key in from_file}
    for key in _CONFIG_OPTIONS:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)

    # command parameters the file may supply when the flag was omitted
    for key in _RUN_KEYS:
        if hasattr(args, key) and getattr(args, key) is None and key in from_file:
            setattr(args, key, from_file[key])
    return merged


def _validated_config(args: argparse.Namespace) -> tuple[bool, SomConfig]:
    """The minmax_scale switch and the SomConfig of the merged values.

    A value that is not of its key's type or not one of its choices is a
    usage error; an absent one takes SomConfig's default.
    """
    values = _merge_config(args)
    try:
        scale = values.pop("minmax_scale", False)
        if not isinstance(scale, bool):
            raise ValueError(f"minmax_scale must be of type bool, got {scale!r}")
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
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _resolved_record(command: str, extra: dict) -> dict:
    record = {
        "command": command,
        "seed_scheme": SEED_SCHEME,
        "seed_phases": PHASES,
    }
    record.update(extra)
    return record


def _write_resolved(record: dict, path: Path) -> None:
    path.write_text(json.dumps(record, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _resolved_path(explicit: str | None, anchor: str | Path) -> Path:
    if explicit:
        return Path(explicit)
    return Path(anchor).with_suffix(".resolved.json")


def _resolved_line(record: dict) -> str:
    return "resolved_config: " + json.dumps(record, sort_keys=True)


def _load_for_model(path: str, label_column: str | None, head_kind: str) -> LabeledDataset:
    if head_kind != "none":
        if not label_column:
            raise UsageError(f"a {head_kind} head needs --label-column")
        return load_csv(path, label_column,
                        "continuous" if head_kind == "regression" else "categorical")
    if label_column:
        # Column present in the file but unused; load it so it is not
        # mistaken for a feature.
        return load_csv(path, label_column, "categorical")
    return load_csv(path)


def _train_model(config: SomConfig, data: LabeledDataset, head_kind: str, scale: bool,
                 fold: int | None = None) -> SomModel:
    extra = () if fold is None else (fold,)
    scaling = None
    if scale:
        data, scaling = minmax_scale(data)
    grid, cov_inv = fit_unsupervised(
        data.X, config, phase_rng(config.seed, "unsupervised", *extra)
    )
    head = None
    if head_kind == "regression":
        head = fit_regressor(
            grid, data.X, data.y, config, phase_rng(config.seed, "supervised", *extra), cov_inv
        )
    elif head_kind == "classification":
        head = fit_classifier(
            grid, data.X, data.y, config, phase_rng(config.seed, "supervised", *extra), cov_inv
        )
    return SomModel(config, grid, cov_inv, scaling, head)


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


def _emit_report(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def cmd_train(args: argparse.Namespace) -> int:
    scale, config = _validated_config(args)
    if args.head is None:
        args.head = "none"
    if args.head not in HEAD_KINDS:
        raise UsageError(f"head must be one of {HEAD_KINDS}, got {args.head!r}")
    _require(args, "data", "model")
    data = _load_for_model(args.data, args.label_column, args.head)
    model = _train_model(config, data, args.head, scale)
    save_model(model, args.model)
    record = _resolved_record(
        "train",
        {
            "data": args.data,
            "label_column": args.label_column,
            "head": args.head,
            "model": args.model,
            "minmax_scale": scale,
            "som_config": asdict(config),
        },
    )
    _write_resolved(record, _resolved_path(args.resolved_config, args.model))
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    _validated_config(args)
    _require(args, "model", "data", "output")
    model = load_model(args.model)
    data = _load_for_model(args.data, args.label_column, "none")
    predictions = model.predict(data.X)
    out = Path(args.output)
    with out.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prediction"])
        for value in predictions:
            if model.head_kind == "regression":
                writer.writerow([repr(float(value))])
            else:
                writer.writerow([value])
    record = _resolved_record(
        "predict",
        {
            "model": args.model,
            "data": args.data,
            "label_column": args.label_column,
            "output": args.output,
            "som_config": asdict(model.config),
        },
    )
    _write_resolved(record, _resolved_path(args.resolved_config, args.output))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    _validated_config(args)
    _require(args, "model", "data", "label_column")
    model = load_model(args.model)
    if model.head_kind == "none":
        raise ValueError("model has no supervised head, nothing to evaluate")
    data = _load_for_model(args.data, args.label_column, model.head_kind)
    report = EvaluationReport(f"evaluation: {model.head_kind}")
    report.folds.append(_evaluate_model(model, data, "test"))
    if args.train_data:
        train = _load_for_model(args.train_data, args.label_column, model.head_kind)
        report.folds.append(_evaluate_model(model, train, "train"))
    record = _resolved_record(
        "evaluate",
        {
            "model": args.model,
            "data": args.data,
            "train_data": args.train_data,
            "label_column": args.label_column,
            "output": args.output,
            "som_config": asdict(model.config),
        },
    )
    _emit_report(report.render() + "\n" + _resolved_line(record), args.output)
    return 0


def cmd_crossval(args: argparse.Namespace) -> int:
    scale, config = _validated_config(args)
    _require(args, "data", "label_column", "head")
    if args.head not in ("regression", "classification"):
        raise UsageError(f"crossval head must be regression or classification, got {args.head!r}")
    if args.k is None:
        args.k = 5
    if args.k < 2:
        raise UsageError(f"k must be >= 2, got {args.k}")
    data = _load_for_model(args.data, args.label_column, args.head)
    folds = k_fold(data, args.k, phase_rng(config.seed, "fold"))
    fold_reports = []
    for i, (train, test) in enumerate(folds):
        model = _train_model(config, train, args.head, scale, fold=i)
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
    record = _resolved_record(
        "crossval",
        {
            "data": args.data,
            "label_column": args.label_column,
            "head": args.head,
            "k": args.k,
            "output": args.output,
            "minmax_scale": scale,
            "som_config": asdict(config),
        },
    )
    _emit_report(report.render() + "\n" + _resolved_line(record), args.output)
    return 0


def cmd_export_maps(args: argparse.Namespace) -> int:
    _validated_config(args)
    _require(args, "model", "data", "out_dir")
    model = load_model(args.model)
    data = _load_for_model(args.data, args.label_column, "none")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    counts = bmu_histogram(
        model.grid, model.prepare(data.X), model.config.metric, model.cov_inv
    )
    with (out_dir / "bmu_histogram.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "column", "count"])
        for r in range(counts.shape[0]):
            for c in range(counts.shape[1]):
                writer.writerow([r, c, int(counts[r, c])])

    if model.head_kind != "none":
        if model.head_kind == "regression":
            values = model.head.values
        else:
            values = model.head.classes
        with (out_dir / "output_map.csv").open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["row", "column", "value"])
            for r in range(values.shape[0]):
                for c in range(values.shape[1]):
                    v = values[r, c]
                    writer.writerow([r, c, repr(float(v)) if model.head_kind == "regression" else v])
    else:
        print("model has no supervised head; skipped output_map.csv", file=sys.stderr)

    record = _resolved_record(
        "export-maps",
        {
            "model": args.model,
            "data": args.data,
            "label_column": args.label_column,
            "out_dir": args.out_dir,
            "som_config": asdict(model.config),
        },
    )
    _write_resolved(record, _resolved_path(args.resolved_config, out_dir / "maps"))
    return 0


_COMMANDS = {
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "crossval": cmd_crossval,
    "export-maps": cmd_export_maps,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"somkit: error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, FileNotFoundError) as exc:
        print(f"somkit: data error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"somkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
