"""Outside-in layer trace of one grid run, and the per-layer metrics from it.

``Tracer.install`` wraps each traced public function of the ``fedtab``
modules at every module attribute that holds it.  Each ``from .models
import train_forest`` binds its own name, so ``fedtab.experiment`` and
``fedtab.federation`` are both wrapped, and wrapping
``fedtab.models.predict_scores`` also catches the call ``predict_labels``
makes.  Spans (name, start, end, parent, counts) stay in memory and the
child writes them out when the grid ends.  No file of the program changes.

A probe reads counts from each call's arguments and result after the span
closes, so its cost lands in the caller's self time and in the tracing
overhead, never in the callee's span.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("dataset", "attack", "models", "federation", "metrics", "experiment")
SMALL_INPUT_ROWS = 64  # compute_report inputs at or below this take the small branch


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(memoryview(a.tobytes() if hasattr(a, "tobytes") else repr(a).encode()))
    return h.hexdigest()


def _probe_train_forest(a, result):
    # a forest depends on the data and these config fields only; epochs and
    # learning rate vary with the round budget but are ignored
    train, cfg = a["train"], a["cfg"]
    used = (cfg.n_trees, cfg.max_depth, cfg.min_leaf, cfg.seed)
    return {"trees": len(result.trees),
            "input": _digest(train.features, train.labels, train.n_classes, used)}


def _probe_steps(a, result):
    return {"steps": a["cfg"].epochs * a["train"].n_samples}


def _probe_predict_scores(a, result):
    return {"rows": int(result.shape[0]), "scores": _digest(result)}


def _probe_flip(a, result):
    return {"flipped": int(result[1].sum())}


def _probe_report(a, result):
    return {"rows": int(result.n_samples)}


def _probe_rounds(a, result):
    return {"rounds": a["cfg"].rounds}


def _probe_cell(a, result):
    return {"cell": f"{a['dataset'].key}.{a['model_kind']}.{a['condition']}"}


# (module, function) -> (layer, probe); spans are named <layer>.<function>
TARGETS = {
    ("fedtab.schemas", "load_dataset"): ("dataset", None),
    ("fedtab.dataset", "build_client_partitions"): ("dataset", None),
    ("fedtab.dataset", "concat_datasets"): ("dataset", None),
    ("fedtab.attack", "flip_labels"): ("attack", _probe_flip),
    ("fedtab.models", "train_forest"): ("models", _probe_train_forest),
    ("fedtab.models", "train_logreg"): ("models", _probe_steps),
    ("fedtab.models", "train_svm"): ("models", _probe_steps),
    ("fedtab.models", "predict_scores"): ("models", _probe_predict_scores),
    ("fedtab.models", "predict_labels"): ("models", None),
    ("fedtab.federation", "run_federated"): ("federation", _probe_rounds),
    ("fedtab.federation", "aggregate_parametric"): ("federation", None),
    ("fedtab.federation", "aggregate_forests"): ("federation", None),
    ("fedtab.federation", "evaluate_global"): ("federation", None),
    ("fedtab.metrics", "compute_report"): ("metrics", _probe_report),
    ("fedtab.metrics", "accuracy"): ("metrics", None),
    ("fedtab.experiment", "run_suite"): ("experiment", None),
    ("fedtab.experiment", "run_condition_detailed"): ("experiment", _probe_cell),
    ("fedtab.experiment", "emit_report"): ("experiment", None),
}


class Tracer:
    """Collects spans as ``[name, layer, start, end, parent, counts]`` lists."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, fn, name: str, layer: str, probe):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, {}]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if probe is not None:
                span[5] = probe(signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every fedtab module attribute bound to a traced function."""
        import importlib

        wrappers = {}
        for (module_name, func_name), (layer, probe) in TARGETS.items():
            fn = getattr(importlib.import_module(module_name), func_name)
            wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{func_name}", layer, probe))
        for module_name, module in list(sys.modules.items()):
            if module_name != "fedtab" and not module_name.startswith("fedtab."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Raises ValueError when a child leaves its parent's interval or two
    siblings overlap, since self time would then be undefined.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] < span[2]:
            raise ValueError(f"span {span[0]} ends before it starts")
        if span[4] >= 0:
            children[span[4]].append(i)
    own = []
    for i, span in enumerate(spans):
        kids = sorted(children.get(i, ()), key=lambda k: spans[k][2])
        covered, last_end = [], span[2]
        for k in kids:
            start, end = spans[k][2], spans[k][3]
            if start < last_end or end > span[3]:
                raise ValueError(f"span {spans[k][0]} is not nested inside {span[0]}")
            covered.append(end - start)
            last_end = end
        own.append((span[3] - span[2]) - math.fsum(covered))
    return own


def layer_metrics(spans: list[list], cells: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced grid run.

    Checks that the layer self times add up to the traced ``run_suite``
    wall; raises ValueError if they do not.
    """
    roots = [i for i, s in enumerate(spans) if s[4] == -1]
    if len(roots) != 1 or spans[roots[0]][0] != "experiment.run_suite":
        raise ValueError(f"expected one run_suite root span, got {[spans[i][0] for i in roots]}")
    own = self_times(spans)
    wall = spans[roots[0]][3] - spans[roots[0]][2]

    time_of: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    cell_s: dict[str, float] = defaultdict(float)
    total: dict[str, int] = defaultdict(int)
    forest_inputs: set[str] = set()
    eval_scores: dict[int, str] = {}  # evaluation span -> digest of its first scoring
    evals_scored = small_reports = 0
    for i, (name, layer, start, end, parent, counts) in enumerate(spans):
        time_of[name] += end - start
        calls[name] += 1
        layer_self[layer] += own[i]
        for key, value in counts.items():
            if isinstance(value, int):
                total[f"{name}.{key}"] += value
        if name == "models.train_forest":
            forest_inputs.add(counts["input"])
        elif name == "metrics.compute_report" and counts["rows"] <= SMALL_INPUT_ROWS:
            small_reports += 1
        elif name == "experiment.run_condition_detailed":
            cell_s[counts["cell"]] += end - start
        elif name == "models.predict_scores":
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != "federation.evaluate_global":
                ancestor = spans[ancestor][4]
            if ancestor >= 0:
                evals_scored += 1
                eval_scores.setdefault(ancestor, counts["scores"])

    layer_sum = math.fsum(layer_self.values())
    if abs(layer_sum - wall) > 1e-6:
        raise ValueError(f"layer self times sum to {layer_sum:.9f}s, run_suite took {wall:.9f}s")

    svm_steps = total["models.train_svm.steps"]
    metrics = {
        "dataset.load_s": time_of["dataset.load_dataset"],
        "dataset.partition_s": time_of["dataset.build_client_partitions"],
        "dataset.partition_calls": calls["dataset.build_client_partitions"],
        "attack.flip_s": time_of["attack.flip_labels"],
        "attack.flipped_rows": total["attack.flip_labels.flipped"],
        "models.train_forest_s": time_of["models.train_forest"],
        "models.train_forest_calls": calls["models.train_forest"],
        "models.trees_grown": total["models.train_forest.trees"],
        "models.forest_useful_ratio": _ratio(len(forest_inputs), calls["models.train_forest"]),
        "models.train_svm_s": time_of["models.train_svm"],
        "models.svm_steps": svm_steps,
        "models.svm_us_per_step": _ratio(time_of["models.train_svm"] * 1e6, svm_steps),
        "models.train_logreg_s": time_of["models.train_logreg"],
        "models.logreg_steps": total["models.train_logreg.steps"],
        "models.predict_scores_s": time_of["models.predict_scores"],
        "models.predict_scores_calls": calls["models.predict_scores"],
        "models.predict_rows": total["models.predict_scores.rows"],
        "models.scores_per_eval": _ratio(evals_scored, calls["federation.evaluate_global"]),
        "federation.rounds": total["federation.run_federated.rounds"],
        "federation.aggregate_s": time_of["federation.aggregate_parametric"]
        + time_of["federation.aggregate_forests"],
        "federation.evaluate_s": time_of["federation.evaluate_global"],
        "federation.evaluate_calls": calls["federation.evaluate_global"],
        "federation.eval_useful_ratio": _ratio(
            len(set(eval_scores.values())), calls["federation.evaluate_global"]
        ),
        "metrics.compute_report_s": time_of["metrics.compute_report"],
        "metrics.compute_report_calls": calls["metrics.compute_report"],
        "metrics.small_input_share": _ratio(small_reports, calls["metrics.compute_report"]),
        "experiment.suite_self_s": own[roots[0]],
        "experiment.emit_report_s": time_of["experiment.emit_report"],
        "trace.wall_s": wall,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    for cell in cells:
        metrics[f"experiment.cell_s.{cell}"] = cell_s.get(cell, 0.0)
    unknown = sorted(set(cell_s) - set(cells))
    if unknown:
        raise ValueError(f"trace saw cells outside the grid: {unknown}")
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_s") or name.startswith("experiment.cell_s."):
        return "s"
    if name.endswith("_us_per_step"):
        return "us"
    if name.endswith(("_ratio", "_share", "_per_eval")):
        return "1"
    return "count"


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between two traced runs."""
    return unit_of(name) in ("count", "1")
