#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the somkit command-line interface.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scene --seed 3 --seconds 30 --trace 0

The benchmark writes the workload's seeded input CSVs into a fresh directory
under perfbench/work/, then runs rounds of real ``somkit`` CLI commands, one
process at a time, from the ``src/`` tree of the checkout, until ``--seconds``
have passed and every command has run at least twice. The program sees only
the CSV files and its command line.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json: the
10%-trimmed mean wall time of each command over the run and the trimmed mean
CLI start-up time, both in reference-scaled seconds (see ``REFERENCE``), the
peak RSS of the largest command process and the map's quantization error.
``--trace 1`` alternates untraced rounds with rounds run through
perfbench/shim.py, which records a span for every call into a layer
function, and reports the per-layer metrics plus the tracing overhead.

Every run checks the outputs: exit codes, prediction row counts and labels,
quality floors, a brute-force BMU spot-check of sampled predictions, and
byte-identical outputs across rounds (and between traced and untraced
rounds). Each command and each check is one operation; a failed one counts
in ``failed``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full record (environment, per-command times, quality, hashes),
which is also written to perfbench/work/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

RUN_LIMIT_S = 170.0       # the whole run must end within 180 s
MIN_ROUNDS = 2            # hash agreement needs a second run of each command
TRIM = 0.1                # share of samples cut from each end before averaging
SPOT_CHECK_ROWS = 12
CLI_ENTRY = "import sys; from somkit.cli import main; sys.exit(main())"
APPLY_KINDS = ("predict", "evaluate", "export_maps")

# A fixed program that imports no somkit code: process start, numpy import,
# a loop of small-array updates like an online SOM's, and passes over an
# 8 MB array. Untraced runs time it between commands, and every end-to-end
# time is scaled by REFERENCE_S / (its trimmed mean time in the run). A
# shared 2-core VM drifts in speed by 20-30% over minutes, and the drift
# slows this program and somkit's commands alike, so the scaled times follow
# the code, not the host. A change to somkit cannot
# change this program's time; the raw seconds stay in the record.
REFERENCE = """
import numpy as np
rng = np.random.default_rng(0)
W = rng.random((400, 8))
big = rng.random(1_000_000)
acc = 0.0
for i in range(1500):
    x = W[i % 400].copy()
    d = ((W - x) ** 2).sum(axis=1)
    W += 0.001 * (x - W) * (d < 0.5)[:, None]
    acc += int(d.argmin()) * 0.5 + i % 7
for _ in range(10):
    big = np.sqrt(big * big + 1.0) - 0.5
"""
REFERENCE_S = 0.28        # about the reference's time on a 2-core x86-64 VM

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Workload  # noqa: E402


class Ledger:
    """Operations attempted and the ones that failed, with reasons."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


@dataclass
class Round:
    traced: bool
    times: dict[str, list[float]] = field(default_factory=dict)  # command key -> s per repeat
    rss_mb: dict[str, float] = field(default_factory=dict)       # command key -> MB
    hashes: dict[str, str] = field(default_factory=dict)         # output file -> sha256
    unstable: set[str] = field(default_factory=set)              # outputs that changed
    layers: dict | None = None                                    # traced rounds only


def _sha256(path: Path) -> str:
    if not path.is_file():
        return "missing"
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs one workload's commands as child processes and keeps the ledger."""

    def __init__(self, workload: Workload, workdir: Path, deadline: float):
        self.workload = workload
        self.workdir = workdir
        self.deadline = deadline
        self.ledger = Ledger()
        self.setup_times: list[float] = []
        self.reference_times: list[float] = []
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + pythonpath if pythonpath else "")

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, float]:
        """Exit code, wall seconds and peak RSS (MB) of one child process."""
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with log.open("wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.workdir, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=subprocess.STDOUT)
            previous = signal.signal(signal.SIGALRM, lambda *_: proc.kill())
            signal.setitimer(signal.ITIMER_REAL, timeout)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, elapsed, usage.ru_maxrss / 1024.0

    def sample_setup(self) -> None:
        """Time one CLI start-up or one reference run, whichever has fewer samples.

        A CLI start-up is the interpreter plus ``import somkit.cli``.
        """
        if len(self.setup_times) <= len(self.reference_times):
            name, code, times = "start-up", "import somkit.cli", self.setup_times
        else:
            name, code, times = "reference", REFERENCE, self.reference_times
        rc, elapsed, _ = self.spawn([sys.executable, "-c", code], self.workdir / "setup.log")
        if self.ledger.check(f"{name} exits 0", rc == 0, f"exit {rc}"):
            times.append(elapsed)

    def round(self, traced: bool, repeat: bool, stop=lambda partial: False) -> Round:
        """Each command once, or ``cmd.repeat`` times when ``repeat``.

        Repeats are interleaved (A B C A B A ...), and with ``repeat`` every
        command is preceded by one CLI start-up or reference sample, so that
        each metric's samples are spread over the whole round. ``stop`` is asked before
        each command, with the round so far, and ends the round early when
        it returns true.
        """
        result = Round(traced)
        passes = max(c.repeat for c in self.workload.commands) if repeat else 1
        for rep in range(passes):
            for cmd in self.workload.commands:
                if rep >= (cmd.repeat if repeat else 1) or stop(result):
                    continue
                if repeat:
                    self.sample_setup()
                self.run_command(cmd, traced, result)
        if traced:
            result.layers = self.collect_traces()
        return result

    def run_command(self, cmd, traced: bool, result: Round) -> None:
        """One run of ``cmd``; its time, RSS and output hashes go into ``result``."""
        log = self.workdir / f"{cmd.key}.log"
        if traced:
            trace = self.workdir / f"trace-{cmd.key}.npz"
            trace.unlink(missing_ok=True)
            argv = [sys.executable, str(HERE / "shim.py"), trace.name, *cmd.args]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *cmd.args]
        rc, elapsed, rss = self.spawn(argv, log)
        tail = log.read_text(errors="replace")[-400:].strip()
        self.ledger.check(f"{cmd.key} exits 0", rc == 0, f"exit {rc}: {tail}")
        result.times.setdefault(cmd.key, []).append(elapsed)
        result.rss_mb[cmd.key] = max(rss, result.rss_mb.get(cmd.key, 0.0))
        for out in cmd.outputs:
            digest = _sha256(self.workdir / out)
            if result.hashes.setdefault(out, digest) != digest:
                result.unstable.add(out)

    def collect_traces(self) -> dict:
        """Per-round sums of span and counter data over the round's commands."""
        total = {"spans": {}, "layer_s": {}, "counters": {}}
        nested = True
        for cmd in self.workload.commands:
            path = self.workdir / f"trace-{cmd.key}.npz"
            if not path.is_file():
                nested = False
                continue
            spans, layer_s, counters, ok = analyze_trace(path)
            nested &= ok
            for name, (calls, s, self_s) in spans.items():
                c0, s0, ss0 = total["spans"].get(name, (0, 0.0, 0.0))
                total["spans"][name] = (c0 + calls, s0 + s, ss0 + self_s)
            for key, value in layer_s.items():
                total["layer_s"][key] = total["layer_s"].get(key, 0.0) + value
            for key, value in counters.items():
                total["counters"][key] = total["counters"].get(key, 0.0) + value
        self.ledger.check("spans nest and no child self time exceeds its parent", nested)
        return total

    def measure(self, seconds: float, traced: bool) -> list[Round]:
        """Rounds until ``seconds`` have passed.

        One untimed start-up first compiles the sources to bytecode. Untraced
        runs repeat short commands within a round and stop at the first
        command after ``seconds``, once every command has run ``MIN_ROUNDS``
        times. Traced runs alternate whole untraced and traced rounds, which
        the tracing overhead compares.
        """
        self.spawn([sys.executable, "-c", "import somkit.cli"], self.workdir / "setup.log")
        rounds: list[Round] = []
        start = time.monotonic()
        slowest = {}   # command key -> its longest run so far

        def out_of_time() -> bool:
            return time.monotonic() + 1.5 * max(slowest.values(), default=0.0) > self.deadline

        def stop(partial: Round) -> bool:
            runs = {c.key: sum(len(r.times.get(c.key, ())) for r in rounds + [partial])
                    for c in self.workload.commands}
            return out_of_time() or (time.monotonic() - start >= seconds
                                     and min(runs.values()) >= MIN_ROUNDS)

        while True:
            plain = [r for r in rounds if not r.traced]
            shims = [r for r in rounds if r.traced]
            if traced:
                if shims and plain and time.monotonic() - start >= seconds or out_of_time():
                    break
                rounds.append(self.round(len(shims) < len(plain), repeat=False))
            else:
                if stop(Round(False)):
                    break
                rounds.append(self.round(False, repeat=True, stop=stop))
            for key, times in rounds[-1].times.items():
                slowest[key] = max(times + [slowest.get(key, 0.0)])
        return rounds


def analyze_trace(path: Path):
    """Calls, seconds and self seconds per span name, plus layer totals.

    Self time is a span's duration minus the durations of its child spans;
    children of one span run one after another, so their sum is the time
    they cover. A layer's time sums its spans whose parent is outside the
    layer, so nested calls within a layer are not counted twice.
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        name_of, parent = z["span_name"], z["span_parent"]
        start, end = z["span_start"], z["span_end"]
        counters = dict(zip((str(n) for n in z["counter_names"]), z["counter_values"].tolist()))
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    self_t = dur - covered
    ok = bool(
        np.all(dur >= 0)
        and np.all(self_t >= -1e-9)
        and np.all(start[child] >= start[parent[child]])
        and np.all(end[child] <= end[parent[child]])
        and np.all(self_t[child] <= dur[parent[child]])
    )
    calls = np.bincount(name_of, minlength=len(names))
    secs = np.bincount(name_of, weights=dur, minlength=len(names))
    self_s = np.bincount(name_of, weights=self_t, minlength=len(names))
    spans = {n: (int(calls[i]), float(secs[i]), float(self_s[i]))
             for i, n in enumerate(names) if calls[i]}

    layer_ids = {}
    layer_of = np.array([layer_ids.setdefault(n.split(".")[0], len(layer_ids)) for n in names]
                        or [0], dtype=np.int64)[name_of]
    outermost = ~child.copy()
    outermost[child] = layer_of[child] != layer_of[parent[child]]
    layer_s = {layer: float(dur[outermost & (layer_of == i)].sum())
               for layer, i in layer_ids.items()}
    return spans, layer_s, counters, ok


# ---------------------------------------------------------------- checks ---

def _read_csv(path: Path, label_column: str | None):
    """Feature matrix and label column (or None) of a benchmark CSV."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    label_idx = header.index(label_column) if label_column in header else None
    X = np.array([[float(c) for i, c in enumerate(r) if i != label_idx] for r in body])
    labels = [r[label_idx] for r in body] if label_idx is not None else None
    return X, labels


def _prepared(model: dict, X: np.ndarray) -> np.ndarray:
    """Apply the model's min-max scaling with the program's own arithmetic."""
    if model["scaling"] is None:
        return X
    mins = np.array(model["scaling"]["mins"])
    ranges = np.array(model["scaling"]["ranges"])
    scaled = np.zeros_like(X)
    ok = ranges > 0
    scaled[:, ok] = (X[:, ok] - mins[ok]) / ranges[ok]
    return scaled


def _weights(model: dict) -> np.ndarray:
    return np.array(model["weights"], dtype=float).reshape(-1, model["feature_dim"])


def nearest_nodes(model: dict, X: np.ndarray) -> np.ndarray:
    """Brute-force BMU of every row, lowest index on ties (euclidean maps).

    Uses the defining formula sqrt(sum((w - x)^2)), so the BMUs are exact.
    """
    if model["config"]["metric"] != "euclidean":
        raise ValueError("the brute-force BMU reference covers euclidean maps only")
    W = _weights(model)
    X = _prepared(model, X)
    chunk = max(1, int(4e6 // W.size))
    bmu = np.empty(X.shape[0], dtype=np.int64)
    for s in range(0, X.shape[0], chunk):
        d = np.sqrt(((W[None, :, :] - X[s:s + chunk, None, :]) ** 2).sum(axis=2))
        bmu[s:s + chunk] = np.argmin(d, axis=1)
    return bmu


def quantization_error(model: dict, X: np.ndarray) -> float:
    """Mean distance from each row to its nearest node, under the model's metric.

    Mahalanobis rows and weights are whitened by the Cholesky factor of the
    inverse covariance first. Squared distances come from one matrix product;
    rounding there changes the mean in its last digits only.
    """
    W = _weights(model)
    X = _prepared(model, X)
    metric = model["config"]["metric"]
    if metric == "mahalanobis":
        L = np.linalg.cholesky(np.array(model["cov_inv"]))
        X, W = X @ L, W @ L
    elif metric != "euclidean":
        raise ValueError(f"no quantization-error reference for metric {metric!r}")
    d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ W.T) + (W * W).sum(axis=1)[None, :]
    return float(np.sqrt(np.maximum(d2.min(axis=1), 0.0)).mean())


def _report_value(path: Path, name: str) -> float:
    match = re.search(rf"^{name} (\S+)$", path.read_text(encoding="utf-8"), re.M)
    if match is None:
        raise ValueError(f"{path.name} has no {name} line")
    return float(match.group(1))


def check_outputs(wl: Workload, workdir: Path, seed: int, ledger: Ledger) -> dict:
    """Output checks of one run; returns the quality values."""
    from somkit.distances import feature_distance

    quality = {}
    train_model = json.loads((workdir / wl.model).read_text(encoding="utf-8"))
    X_train, train_labels = _read_csv(workdir / wl.train_csv, wl.label_column)
    quality["qe"] = quantization_error(train_model, X_train)

    for model_file, data_csv, pred_csv in wl.predictions:
        model = json.loads((workdir / model_file).read_text(encoding="utf-8"))
        X, _ = _read_csv(workdir / data_csv, wl.label_column)
        with (workdir / pred_csv).open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        preds = [r[0] for r in rows[1:]]
        ledger.check(f"{pred_csv} has one row per input row",
                     rows[0] == ["prediction"] and len(preds) == X.shape[0],
                     f"{len(preds)} predictions for {X.shape[0]} rows")
        head = model["head"]
        if head["kind"] == "classification":
            allowed = set(head["class_set"]) & set(train_labels)
            bad = sorted(set(preds) - allowed)
            ledger.check(f"{pred_csv} labels are training classes", not bad, f"unknown {bad[:5]}")
        else:
            ledger.check(f"{pred_csv} values are finite",
                         all(np.isfinite(float(p)) for p in preds))

        # spot-check: prediction == head value at the feature_distance BMU
        W = _weights(model)
        Xs = _prepared(model, X)
        cov_inv = None if model["cov_inv"] is None else np.array(model["cov_inv"])
        sample = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(99,)))
        rows_checked = np.sort(sample.choice(X.shape[0], min(SPOT_CHECK_ROWS, X.shape[0]),
                                             replace=False))
        wrong = []
        for i in rows_checked.tolist():
            d = [feature_distance(Xs[i], w, model["config"]["metric"], cov_inv) for w in W]
            node = int(np.argmin(d))
            if head["kind"] == "classification":
                expected = head["class_set"][head["codes"][node]]
                same = i < len(preds) and preds[i] == expected
            else:
                expected = head["values"][node]
                same = i < len(preds) and float(preds[i]) == expected
            if not same:
                wrong.append(i)
        ledger.check(f"{pred_csv} matches brute-force BMUs on {len(rows_checked)} rows",
                     not wrong, f"rows {wrong}")

    if wl.maps is not None:
        hist_csv, data_csv = wl.maps
        X, _ = _read_csv(workdir / data_csv, wl.label_column)
        bmu = nearest_nodes(train_model, X)
        expected = np.bincount(bmu, minlength=_weights(train_model).shape[0])
        with (workdir / hist_csv).open(newline="", encoding="utf-8") as fh:
            got = np.array([int(r[2]) for r in list(csv.reader(fh))[1:]])
        ledger.check(f"{hist_csv} equals the brute-force BMU histogram",
                     got.shape == expected.shape and bool(np.all(got == expected)))

    for name, (report, line) in wl.reports.items():
        quality[name] = _report_value(workdir / report, line)
    for name, (op, bound) in wl.floors.items():
        value = quality[name]
        ok = value >= bound if op == ">=" else value <= bound
        ledger.check(f"quality floor {name} {op} {bound}", ok, f"{name} = {value}")
    return quality


# --------------------------------------------------------------- metrics ---

def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def _trimmed_mean(values) -> float:
    """Mean of ``values`` without the lowest and highest ``TRIM`` share.

    The host alternates between speed regimes for seconds at a time. The
    median of such a sample jumps from one regime to the other when their
    shares cross a half; the trimmed mean moves in proportion to the shares,
    and still drops the odd outlier.
    """
    values = sorted(values)
    if not values:
        return float("nan")
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(layers: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    spans, counters = layers["spans"], layers["counters"]

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    def counter(name):
        return counters.get(name, 0.0)

    out = {}
    for name, (calls, s, self_s) in spans.items():
        out[f"{name}.calls"] = calls
        out[f"{name}.s"] = s
        out[f"{name}.self_s"] = self_s
        out[f"{name}.us_per_call"] = _ratio(s, calls) * 1e6
    for layer, s in layers["layer_s"].items():
        out[f"{layer}.s"] = s

    load_s = span("datasets.load_csv")[1]
    out["datasets.load_csv.rows"] = counter("datasets.load_csv.rows")
    out["datasets.load_csv.mb_per_s"] = _ratio(counter("datasets.load_csv.bytes") / 1e6, load_s)
    out["distances.distance_matrix.rows"] = counter("distances.distance_matrix.rows")
    out["som.kernel_matrix.active_frac"] = _ratio(counter("som.kernel_matrix.active"),
                                                  counter("som.kernel_matrix.nodes"))
    for fn in ("online_update", "batch_update", "transform"):
        mb = counter(f"som.{fn}.computed_bytes") / 1e6
        out[f"som.{fn}.computed_mb"] = mb
        out[f"som.{fn}.mb_per_s"] = _ratio(mb, span(f"som.{fn}")[1])
    transform_s = span("som.transform")[1]
    gflop = counter("som.transform.computed_flop") / 1e9
    out["som.transform.rows"] = counter("som.transform.rows")
    out["som.transform.rows_per_s"] = _ratio(out["som.transform.rows"], transform_s)
    out["som.transform.computed_gflop"] = gflop
    out["som.transform.gflop_per_s"] = _ratio(gflop, transform_s)
    out["supervised.apply_class_update.flip_yield"] = _ratio(
        counter("supervised.apply_class_update.changed"),
        counter("supervised.apply_class_update.drawn"))
    out["model_io.save_model.bytes"] = counter("model_io.save_model.bytes")
    return out


def command_samples(rounds: list[Round]) -> dict[str, list[float]]:
    """Wall times of each command over all its runs in ``rounds``."""
    keys = dict.fromkeys(k for r in rounds for k in r.times)
    return {k: [t for r in rounds for t in r.times.get(k, ())] for k in keys}


def command_times(rounds: list[Round]) -> dict[str, float]:
    """Trimmed mean wall time of each command over all its runs in ``rounds``."""
    return {k: _trimmed_mean(t) for k, t in command_samples(rounds).items()}


def per_layer_values(rounds: list[Round], names: list[str]) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    per_round = [layer_metrics(r.layers) for r in traced]
    traced_s = sum(command_times(traced).values()) if traced else float("nan")
    plain_s = sum(command_times([r for r in rounds if not r.traced]).values())
    values = {}
    for name in names:
        if name == "trace.overhead_s":
            values[name] = traced_s - plain_s
        elif name == "trace.overhead_frac":
            values[name] = _ratio(traced_s - plain_s, plain_s)
        else:
            # a layer the workload never calls reads 0
            values[name] = _median(m.get(name, 0.0) for m in per_round)
    return values


def kind_times(wl: Workload, rounds: list[Round]) -> dict[str, float]:
    """Per CLI command kind, the summed untraced command times, as <kind>_s."""
    times = command_times([r for r in rounds if not r.traced])
    out: dict[str, float] = {}
    for cmd in wl.commands:
        out[f"{cmd.kind}_s"] = out.get(f"{cmd.kind}_s", 0.0) + times.get(cmd.key, float("nan"))
    return out


def end_to_end_values(wl: Workload, rounds: list[Round], setup_s: float, scale: float,
                      quality: dict) -> dict[str, float]:
    """The declared end-to-end metrics; ``scale`` converts wall to reference-scaled seconds."""
    kinds = kind_times(wl, rounds)
    return {
        "setup_s": scale * setup_s,
        "train_s": scale * kinds["train_s"],
        "apply_s": scale * sum(v for k, v in kinds.items() if k[:-2] in APPLY_KINDS),
        "round_s": scale * sum(kinds.values()),
        "peak_rss_mb": max((v for r in rounds for v in r.rss_mb.values()), default=float("nan")),
        "qe": quality.get("qe", float("nan")),
    }


# ----------------------------------------------------------- environment ---

def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.rsplit("/", 1)[-1].lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ------------------------------------------------------------------ main ---

def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "somkit" / "cli.py").is_file():
        print(f"perfbench: no somkit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(wl, workdir, started + RUN_LIMIT_S)
        rounds = runner.measure(args.seconds, bool(args.trace))
        setup_s = _trimmed_mean(runner.setup_times)
        reference_s = _trimmed_mean(runner.reference_times)
        ledger = runner.ledger
        plain = [r for r in rounds if not r.traced]
        ledger.check(f"at least {MIN_ROUNDS if not args.trace else 1} untraced round(s)",
                     len(plain) >= (1 if args.trace else MIN_ROUNDS), f"{len(plain)} rounds")
        for i, r in enumerate(rounds):
            ledger.check("outputs equal on every run of a round", not r.unstable,
                         f"differ: {sorted(r.unstable)}")
            if i:
                diff = sorted(k for k in r.hashes if r.hashes[k] != rounds[0].hashes.get(k))
                what = "traced outputs equal untraced" if r.traced else "outputs equal round 1"
                ledger.check(what, not diff, f"differ: {diff}")
        try:
            quality = check_outputs(wl, workdir, args.seed, ledger)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            ledger.check("output checks ran", False, repr(exc))
            quality = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = per_layer_values(rounds, [m["name"] for m in declared])
    else:
        values = end_to_end_values(wl, rounds, setup_s, REFERENCE_S / reference_s, quality)
    metrics = {}
    for m in declared:
        value = float(values[m["name"]])
        if not np.isfinite(value):
            ledger.check(f"metric {m['name']} measured", False, repr(value))
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": {"untraced": len(plain), "traced": len(rounds) - len(plain)},
        "round_command_s": [{"traced": r.traced, **r.times} for r in rounds],
        "setup_samples_s": runner.setup_times,
        "reference_samples_s": runner.reference_times,
        "environment": environment(args.seed),
        # unscaled wall seconds; traced runs take no start-up or reference samples
        "wall_s": {k: v for k, v in {**kind_times(wl, rounds), "setup_s": setup_s,
                                     "reference_s": reference_s}.items() if np.isfinite(v)},
        "command_samples": {k: {"n": len(t), "median": _median(t),
                                "trimmed_mean": _trimmed_mean(t)}
                            for k, t in command_samples(plain).items()},
        "peak_rss_mb_by_command": {k: max(r.rss_mb.get(k, 0.0) for r in rounds)
                                   for k in rounds[0].rss_mb}
        if rounds else {},
        "quality": quality,
        "failed_frac": _ratio(len(ledger.failures), ledger.attempted),
        "failures": ledger.failures,
        "hashes": rounds[0].hashes if rounds else {},
        "metrics": metrics,
    }
    for name, value in record["wall_s"].items():
        print(f"{args.workload:<11} {'wall.' + name:<44} {value:.6g} s")
    for name, value in {**quality, "failed_frac": record["failed_frac"]}.items():
        print(f"{args.workload:<11} {name:<44} {value:.6g}")
    for name, m in metrics.items():
        print(f"{args.workload:<11} {name:<44} {m['value']:.6g} {m['unit']}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
