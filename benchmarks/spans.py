"""In-memory span tracer that wraps domcf's public entry points from outside.

The tracer patches class methods on their class and module functions under
every name a loaded ``domcf`` module binds them to, so calls made through
``from .train import dataset_nll`` in another module are seen too.  Each call
becomes one span ``[id, parent, name, start, end, rows]``; the parent is the
innermost traced call still running.  An entry point missing from the
installed version is recorded in ``absent`` instead of failing, so the
benchmark keeps running across refactors that rename or delete a public name.
"""
from __future__ import annotations

import importlib
import json
import statistics
import sys
from time import perf_counter

# (span name, module, attribute path, where the row count comes from):
# an int is the positional argument holding the data, "result" means the
# first element of the return value, None means the span carries no rows.
ENTRIES = (
    ("datagen.generate_ground_truth", "domcf.datagen", "generate_ground_truth", None),
    ("datagen.sample_dataset", "domcf.datagen", "sample_dataset", None),
    ("datagen.oracle_counterfactual_error", "domcf.datagen", "oracle_counterfactual_error", None),
    ("train.train", "domcf.train", "train", None),
    ("train.train_with_state", "domcf.train", "train_with_state", None),
    ("train.adam", "domcf.train", "Adam.step", None),
    ("train.adam_step", "domcf.train", "adam_step", None),
    ("train.materialize", "domcf.train", "TrainableILD.materialize", None),
    ("train.dataset_nll", "domcf.train", "dataset_nll", 1),
    ("ild.log_likelihood", "domcf.ild", "ILDModel.log_likelihood", 1),
    ("ild.counterfactual", "domcf.ild", "ILDModel.counterfactual", 1),
    ("ild.counterfactuals", "domcf.ild", "ILDModel.counterfactuals", 1),
    ("ild.dc_distance", "domcf.ild", "dc_distance", None),
    ("ild.check_counterfactual_equiv", "domcf.ild", "check_counterfactual_equiv", None),
    ("ild.check_distribution_equiv", "domcf.ild", "check_distribution_equiv", None),
    ("mixing.chain_forward", "domcf.mixing", "LayerChain.forward", 1),
    ("mixing.chain_inverse", "domcf.mixing", "LayerChain.inverse", 1),
    ("mixing.chain_log_abs_det", "domcf.mixing", "LayerChain.log_abs_det", 1),
    ("mixing.chain_inverse_and_log_det", "domcf.mixing", "LayerChain.inverse_and_log_det", 1),
    ("scm.forward", "domcf.scm", "AffineSCM.forward", 1),
    ("scm.inverse", "domcf.scm", "AffineSCM.inverse", 1),
    ("scm.intervention_set", "domcf.scm", "intervention_set", None),
    ("scm.compose", "domcf.scm", "compose", None),
    ("canonical.canonicalize", "domcf.canonical", "canonicalize", None),
    ("serialize.read_dataset_csv", "domcf.serialize", "read_dataset_csv", "result"),
    ("serialize.write_dataset_csv", "domcf.serialize", "write_dataset_csv", 1),
    ("cli.main", "domcf.cli", "main", None),
)

FIT_SPANS = ("train.train", "train.train_with_state")
RECORD_SPANS = ("train.materialize", "train.dataset_nll")
ADAM_SPANS = ("train.adam", "train.adam_step")
CHAIN_PASSES = (
    "mixing.chain_forward",
    "mixing.chain_inverse",
    "mixing.chain_log_abs_det",
    "mixing.chain_inverse_and_log_det",
)
ABDUCTIONS = ("mixing.chain_inverse", "mixing.chain_inverse_and_log_det")
CF_SPANS = ("ild.counterfactual", "ild.counterfactuals")

ID, PARENT, NAME, START, END, ROWS = range(6)


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return 0
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Owns the spans of one traced phase and the patches that produce them."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn, rows_from):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name
            if name == "cli.main":
                argv = args[0] if args else kwargs.get("argv")
                label = f"cli.{argv[0]}" if argv else name
            span = [len(spans), stack[-1] if stack else -1, label, 0.0, 0.0, 0]
            if isinstance(rows_from, int) and len(args) > rows_from:
                span[ROWS] = _rows(args[rows_from])
            spans.append(span)
            stack.append(span[ID])
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if rows_from == "result":
                span[ROWS] = _rows(out[0])
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, entries=ENTRIES) -> None:
        loaded = [m for key, m in sys.modules.items() if key.split(".")[0] == "domcf"]
        for name, module_name, path, rows_from in entries:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                orig = None if owner is None else owner.__dict__.get(attr)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                setattr(owner, attr, self._wrap(name, orig, rows_from))
                self._undo.append((owner, attr, orig))
                continue
            orig = getattr(module, attr, None)
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig, rows_from)
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, start, end, rows in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name,
                    "start_s": start, "dur_us": (end - start) * 1e6, "rows": rows,
                }) + "\n")


def _nearest(spans, span, names) -> list | None:
    """The innermost ancestor of ``span`` whose name is in ``names``."""
    parent = span[PARENT]
    while parent >= 0:
        anc = spans[parent]
        if anc[NAME] in names:
            return anc
        parent = anc[PARENT]
    return None


def _percentile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(spans, first: int, rounds: int) -> dict[str, float]:
    """Per-layer numbers from the spans recorded since index ``first``.

    Counts and busy times are per round; per-call figures are medians.
    """
    window = spans[first:]
    by_name: dict[str, list] = {}
    child_time = [0.0] * len(spans)
    for s in window:
        by_name.setdefault(s[NAME], []).append(s)
        if s[PARENT] >= first:
            child_time[s[PARENT]] += s[END] - s[START]

    def calls(name):
        return len(by_name.get(name, ()))

    def rows(names):
        return sum(s[ROWS] for n in names for s in by_name.get(n, ()))

    def busy(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    def self_time(name):
        return sum(s[END] - s[START] - child_time[s[ID]] for s in by_name.get(name, ()))

    def median_ms(name):
        durs = [s[END] - s[START] for s in by_name.get(name, ())]
        return 1e3 * statistics.median(durs) if durs else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in ("ild.log_likelihood", "ild.counterfactual"):
        out[f"{name}.calls"] = calls(name) / rounds
        out[f"{name}.rows"] = rows([name]) / rounds
        out[f"{name}.self_ms"] = 1e3 * self_time(name) / rounds
    for name in CHAIN_PASSES[:3] + ("scm.forward", "scm.inverse"):
        out[f"{name}.calls"] = calls(name) / rounds
        out[f"{name}.rows"] = rows([name]) / rounds
        out[f"{name}.ms"] = 1e3 * busy(name) / rounds
    out["scm.intervention_set.calls"] = calls("scm.intervention_set") / rounds
    out["scm.intervention_set.ms"] = 1e3 * busy("scm.intervention_set") / rounds
    out["scm.compose.calls"] = calls("scm.compose") / rounds

    nll_passes = sum(
        s[ROWS] for s in window
        if s[NAME] in CHAIN_PASSES and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "ild.log_likelihood"
    )
    out["mixing.chain_passes_per_nll_row"] = ratio(nll_passes, rows(["ild.log_likelihood"]))
    abductions = sum(
        s[ROWS] for s in window
        if s[NAME] in ABDUCTIONS and s[PARENT] >= 0 and spans[s[PARENT]][NAME] in CF_SPANS
    )
    out["ild.abductions_per_cf_row"] = ratio(abductions, rows(CF_SPANS))

    for name in (
        "datagen.oracle_counterfactual_error",
        "ild.dc_distance",
        "ild.check_counterfactual_equiv",
        "ild.check_distribution_equiv",
        "canonical.canonicalize",
    ):
        out[f"{name}.ms"] = median_ms(name)
    for name in ("serialize.read_dataset_csv", "serialize.write_dataset_csv"):
        out[f"{name}.rows_per_s"] = ratio(rows([name]), busy(name))
    for command in ("eval", "counterfactual", "canonicalize"):
        out[f"cli.{command}.s"] = median_ms(f"cli.{command}") / 1e3

    # Training: a fit span minus its Adam and record descendants is the step.
    fit_names = FIT_SPANS + ADAM_SPANS + RECORD_SPANS
    adam_durs: list[float] = []
    record_time = step_time = fit_time = 0.0
    iterations = 0
    for s in window:
        if s[NAME] in FIT_SPANS and _nearest(spans, s, FIT_SPANS) is None:
            fit_time += s[END] - s[START]
            step_time += s[END] - s[START]
            continue
        if s[NAME] not in ADAM_SPANS + RECORD_SPANS:
            continue
        owner = _nearest(spans, s, fit_names)
        if owner is None or owner[NAME] not in FIT_SPANS:
            continue
        step_time -= s[END] - s[START]
        if s[NAME] in ADAM_SPANS:
            adam_durs.append(s[END] - s[START])
            iterations += 1
        else:
            record_time += s[END] - s[START]
    out["train.iterations"] = iterations / rounds
    out["train.materialize.calls"] = calls("train.materialize") / rounds
    out["train.step.self_us"] = 1e6 * ratio(step_time, iterations)
    out["train.adam.us_p50"] = 1e6 * _percentile(adam_durs, 0.50) if adam_durs else 0.0
    out["train.adam.us_p99"] = 1e6 * _percentile(adam_durs, 0.99) if adam_durs else 0.0
    out["train.record_s_total"] = record_time
    out["train.record_share"] = ratio(record_time, fit_time)
    return out
