"""The exit-code contract of the CLI, as a property test.

Every run returns 0, 1 or 2 and lets no exception out, and a run that fails
prints exactly one line on stderr, led by ``somkit:``. The runs go through
:func:`somkit.cli.main` in-process, on valid inputs with one value changed:

- model files: a regression model (mahalanobis, with min-max scaling) or a
  classification model, with one JSON path set to a probe value, through
  ``predict``, ``export-maps`` and ``evaluate``;
- configuration values: one configuration key set to a probe value, through
  a config file and through its flag, in ``train`` and ``crossval`` on a
  dataset of 12 rows;
- data files: 12 rows whose feature cells are drawn from the finite
  extremes (+-1e308, the largest float, the smallest subnormal, -0.0 and 0),
  a column of one value, or duplicated rows, through ``train`` with and
  without min-max scaling, ``crossval`` and ``predict``;
- ragged data files: rows one field short and rows one field long, the label
  column last, through ``train`` and ``crossval`` with a head and ``train``,
  ``predict`` and ``export-maps`` without one. Each of these runs must exit
  with 2 and write nothing.

The probe values are null, the booleans, 0, -1, 1.5, +-1e308, 2^70, a
string, a list and an object. Grid sides and iteration counts are fixed and
small; a fuzzed size takes only the probe values, none of them a large valid
size, which would allocate or run for long. Under the test settings a numpy
RuntimeWarning is an error, so a warning that reaches the user fails here too.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from somkit.cli import _CONFIG_OPTIONS, main
from somkit.datasets import save_csv, synthetic_blobs, synthetic_regression

FUZZ = settings(derandomize=True, deadline=None, database=None)

PROBES = [None, True, False, 0, -1, 1.5, 1e308, -1e308, 2**70, "x", [], [0.5], {}, {"a": 1}]

EXTREMES = [1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324, -0.0, 0.0]

SMALL = {"n_row": "2", "n_column": "3", "n_iter_unsupervised": "20", "n_iter_supervised": "20"}


def run(argv):
    """``main(argv)``, checked against the contract."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("somkit:"), (argv, err.getvalue())
    return rc


def json_paths(value, path=()):
    """Every path into ``value``; of a list only its first and last entries."""
    yield path
    if isinstance(value, dict):
        for key, entry in value.items():
            yield from json_paths(entry, (*path, key))
    elif isinstance(value, list) and value:
        for i in sorted({0, len(value) - 1}):
            yield from json_paths(value[i], (*path, i))


@pytest.fixture(scope="module")
def setting(tmp_path_factory):
    """The datasets, and each head's valid model as JSON with the paths into it."""
    root = tmp_path_factory.mktemp("fuzz")
    data = {"regression": (root / "r.csv", "target"), "classification": (root / "c.csv", "label")}
    save_csv(synthetic_regression(12, 0.05, np.random.default_rng(0)), data["regression"][0],
             label_column="target")
    save_csv(synthetic_blobs(12, 3, 8.0, np.random.default_rng(0)), data["classification"][0],
             label_column="label")
    small = [v for key, value in SMALL.items() for v in ("--" + key.replace("_", "-"), value)]
    models = {}
    for head, flags in (("regression", ["--metric", "mahalanobis", "--minmax-scale"]),
                        ("classification", [])):
        path, label = data[head]
        model = root / f"{head}.json"
        assert main(["train", "--data", str(path), "--label-column", label, "--head", head,
                     "--model", str(model), *flags, *small]) == 0
        payload = json.loads(model.read_text())
        models[head] = payload, list(json_paths(payload))[1:]
    return data, models


@settings(FUZZ, max_examples=250)
@given(st.data())
def test_a_model_file_with_one_value_changed_keeps_the_contract(setting, draw):
    data, models = setting
    head = draw.draw(st.sampled_from(sorted(models)))
    payload, paths = models[head]
    path = draw.draw(st.sampled_from(paths))
    payload = copy.deepcopy(payload)
    entry = payload
    for key in path[:-1]:
        entry = entry[key]
    entry[path[-1]] = draw.draw(st.sampled_from(PROBES))
    csv, label = (str(v) for v in data[head])
    with tempfile.TemporaryDirectory() as tmp:
        model = Path(tmp) / "model.json"
        model.write_text(json.dumps(payload))
        given_ = ["--model", str(model), "--data", csv, "--label-column", label]
        run(["predict", *given_, "--output", str(Path(tmp) / "pred.csv")])
        run(["export-maps", *given_, "--out-dir", str(Path(tmp) / "maps")])
        run(["evaluate", *given_, "--output", str(Path(tmp) / "report.txt")])


@settings(FUZZ, max_examples=120)
@given(st.sampled_from(sorted(_CONFIG_OPTIONS)), st.sampled_from(PROBES))
def test_a_configuration_value_keeps_the_contract(setting, key, value):
    data, _ = setting
    flag = "--" + key.replace("_", "-")
    # the other sizes fixed; a flag would beat the file's value
    small = [v for k, size in SMALL.items() if k != key
             for v in ("--" + k.replace("_", "-"), size)]
    text = value if isinstance(value, str) else json.dumps(value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "run.json"
        config.write_text(json.dumps({key: value}))
        commands = [
            (["train", "--head", "regression", "--model", str(Path(tmp) / "m.json")],
             data["regression"]),
            (["crossval", "--head", "classification", "--k", "2",
              "--output", str(Path(tmp) / "report.txt")], data["classification"]),
        ]
        for command, (csv, label) in commands:
            for given_ in (["--config", str(config)], [flag, text]):
                run([*command, "--data", str(csv), "--label-column", label, *given_, *small])


# a feature column of 12 cells: extremes among ordinary numbers, or one value
CELLS = st.sampled_from([*EXTREMES, 0.5, -3.0])
COLUMNS = st.lists(CELLS, min_size=12, max_size=12) | CELLS.map(lambda v: [v] * 12)
# the source row of each row: the rows as they are, or with duplicates
ORDERS = st.just(list(range(12))) | st.lists(st.integers(0, 11), min_size=12, max_size=12)


def run_data_file(models, content: bytes):
    """``train`` with and without min-max scaling, ``crossval`` both ways and
    ``predict`` (with the model it trained and with the scaled mahalanobis
    model) on a data file of ``content``, each run checked by :func:`run`."""
    small = [v for key, value in SMALL.items() for v in ("--" + key.replace("_", "-"), value)]
    with tempfile.TemporaryDirectory() as tmp:
        csv, model = Path(tmp) / "d.csv", Path(tmp) / "m.json"
        csv.write_bytes(content)
        given_ = ["--data", str(csv), "--label-column", "target"]
        for scale in ([], ["--minmax-scale"]):
            run(["train", *given_, "--head", "regression", "--model", str(model), *scale,
                 *small])
            run(["crossval", *given_, "--head", "regression", "--k", "2", *scale, *small,
                 "--output", str(Path(tmp) / "report.txt")])
        scaled = Path(tmp) / "scaled.json"
        scaled.write_text(json.dumps(models["regression"][0]))
        for trained in (model, scaled):
            if trained.exists():
                run(["predict", "--model", str(trained), *given_,
                     "--output", str(Path(tmp) / "pred.csv")])


@settings(FUZZ, max_examples=60)
@given(st.lists(COLUMNS, min_size=2, max_size=2), ORDERS)
def test_a_data_file_of_extreme_numbers_keeps_the_contract(setting, columns, order):
    data, models = setting
    target = np.loadtxt(data["regression"][0], delimiter=",", skiprows=1)[:, -1]
    run_data_file(models, ("x0,x1,target\n" + "".join(
        f"{columns[0][i]!r},{columns[1][i]!r},{target[i]!r}\n" for i in order)).encode())


# the 10 two-feature rows near 1e150 on which one mexican-hat batch update
# carries a 2x5 map past the exact search's range (see tests/test_cli.py)
_rng = np.random.default_rng(1804)
_rng.integers(2, 12)
BATCH_EDGE_ROWS = (1e150 * _rng.normal(size=(10, 2))).tolist()
# 2 to 10 two-feature rows uniform in [-4, 4) times 1, or times 1e150 to
# 1e153: numbers whose squared distances stay finite but which the mexican
# hat can carry past the range where the euclidean search is exact. The rows
# come from a drawn seed, as hypothesis draws few spread-out floats.
MAP_ROWS = st.builds(
    lambda seed, n, scale: (scale * np.random.default_rng(seed).uniform(-4, 4, (n, 2))).tolist(),
    st.integers(0, 2**32 - 1), st.integers(2, 10), st.sampled_from([1.0, 1e150, 1e152, 1e153]))


@settings(FUZZ, max_examples=100)
@given(
    MAP_ROWS,
    st.sampled_from(["online", "batch"]),
    st.sampled_from(["gaussian", "mexican-hat"]),
    st.integers(1, 20),
    st.floats(0.5, 3.0),
    st.integers(0, 1000),
)
@example(BATCH_EDGE_ROWS, "batch", "mexican-hat", 1, 1.4736537333670832, 181)
def test_a_model_that_train_writes_applies_to_its_own_data(rows, mode, kernel, iterations,
                                                           radius, seed):
    """A headless 2x5 map trained in either update mode under either kernel,
    for 1 to 20 iterations at a fixed radius: whenever ``train`` exits 0,
    ``export-maps`` of the model on the data it was trained on exits 0 too."""
    with tempfile.TemporaryDirectory() as tmp:
        csv, model = Path(tmp) / "d.csv", Path(tmp) / "m.json"
        csv.write_text("a,b\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
        if run(["train", "--data", str(csv), "--model", str(model), "--update-mode", mode,
                "--kernel", kernel, "--n-row", "2", "--n-column", "5",
                "--n-iter-unsupervised", str(iterations), "--radius-schedule", "start-end",
                "--radius-start", repr(radius), "--radius-end", repr(radius),
                "--seed", str(seed)]) == 0:
            assert run(["export-maps", "--model", str(model), "--data", str(csv),
                        "--out-dir", str(Path(tmp) / "maps")]) == 0


# a cell {} in another form, after the ingest cases of tests/test_datasets.py:
# quoted, with a quoted comma, an empty quoted cell, unbalanced and inner
# quotes, text after a closing quote, a NUL byte, a quoted line end and a
# byte that is not UTF-8 (a lone surrogate, written by surrogateescape)
FORMS = ['"{}"', '"{},5"', '""', '"{}', '{}"', '"{}""1"', '{}"x"', '"{}"x', "{}\x00",
         '"{}\n2"', '"{}\r\n2"', "{}\udcff", "\udcc3{}"]
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@settings(FUZZ, max_examples=80)
@given(
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 2), st.sampled_from(FORMS)),
             max_size=3),
    LINE_ENDS.map(lambda end: [end] * 13) | st.lists(LINE_ENDS, min_size=13, max_size=13),
    st.lists(st.integers(0, 13), max_size=2),
    st.booleans(),
    st.booleans(),
)
def test_a_data_file_of_odd_quoting_and_line_ends_keeps_the_contract(
        setting, forms, line_ends, blank_lines, final_line_end, bom):
    """Some cells, the header's included, in another form; every line ended
    alike or each its own way; blank lines; with or without a final line end
    and a UTF-8 byte order mark."""
    data, models = setting
    rows = [["x0", "x1", "target"], *(
        [repr(v) for v in row]
        for row in np.loadtxt(data["regression"][0], delimiter=",", skiprows=1).tolist())]
    for row, column, form in forms:
        rows[row][column] = form.format(rows[row][column])
    lines = [",".join(row) + end for row, end in zip(rows, line_ends)]
    for at in blank_lines:
        lines.insert(at, line_ends[at % 13])
    text = "\ufeff" * bom + "".join(lines)
    if not final_line_end:
        text = text.rstrip("\r\n")
    run_data_file(models, text.encode("utf-8", errors="surrogateescape"))


@settings(FUZZ, max_examples=40)
@given(
    st.lists(st.tuples(st.integers(1, 12), st.sampled_from(["short", "long"]), st.integers(0, 2)),
             min_size=1, max_size=4, unique_by=lambda change: change[0]),
    LINE_ENDS,
    st.booleans(),
)
# as many short rows as long ones: their commas add up to those of full rows
@example([(1, "short", 2), (3, "long", 0)], "\n", True)
def test_a_data_file_of_ragged_rows_exits_2_and_writes_nothing(setting, changes, line_end,
                                                               final_line_end):
    """Rows of the regression data, whose label column is last, with a field
    left out or one more added, through runs with and without a head."""
    data, models = setting
    rows = [["x0", "x1", "target"], *(
        [repr(v) for v in row]
        for row in np.loadtxt(data["regression"][0], delimiter=",", skiprows=1).tolist())]
    for row, change, field in changes:
        if change == "short":
            del rows[row][field]
        else:
            rows[row].insert(field, "0.5")
    small = [v for key, value in SMALL.items() for v in ("--" + key.replace("_", "-"), value)]
    with tempfile.TemporaryDirectory() as tmp:
        csv, model, out = Path(tmp) / "d.csv", Path(tmp) / "m.json", Path(tmp) / "out"
        csv.write_bytes((line_end.join(map(",".join, rows)) + line_end * final_line_end).encode())
        model.write_text(json.dumps(models["regression"][0]))
        for argv in (["train", "--head", "regression", "--model", str(out), *small],
                     ["crossval", "--head", "regression", "--k", "2", "--output", str(out),
                      *small],
                     ["train", "--model", str(out), *small],
                     ["predict", "--model", str(model), "--output", str(out)],
                     ["export-maps", "--model", str(model), "--out-dir", str(out)]):
            assert run([*argv, "--data", str(csv), "--label-column", "target"]) == 2, argv
            assert sorted(path.name for path in Path(tmp).iterdir()) == ["d.csv", "m.json"]
