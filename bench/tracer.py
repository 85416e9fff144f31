"""In-memory span recorder for the benchmark's traced runs.

`install()` wraps public functions of the program at the place where the
calling module looks them up (for example `cardioprompt.experiment.
randomized_search`, which `run_ml_baselines` calls), so spans follow
whatever path the program takes. A span is (name, start, end, parent,
attrs); parents are tracked per thread. Spans stay in memory and `dump()`
hands them out once, when the verb ends. Nothing here changes what the
wrapped functions compute.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from pathlib import Path


class Recorder:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1, attrs)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def count_send(self):
        self._local.sends = self.sends() + 1

    def sends(self) -> int:
        """HTTP sends this thread made since its last reset_sends()."""
        return getattr(self._local, "sends", 0)

    def reset_sends(self):
        self._local.sends = 0

    def call(self, name, fn, args, kwargs, attrs=None, after=None, cpu=False):
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append(None)  # reserve the slot so children see a stable parent index
        parent = stack[-1] if stack else -1
        stack.append(index)
        attrs = dict(attrs or {})
        cpu0 = time.process_time() if cpu else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if cpu:
            attrs["cpu_s"] = time.process_time() - cpu0
        if after is not None:
            attrs.update(after(args, result))
        self.spans[index] = (name, start, end, parent, attrs)
        return result

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans if s is not None]


def _wrap(rec: Recorder, owner, attr: str, name: str, attrs_of=None, after=None, cpu=False):
    original = getattr(owner, attr)

    @functools.wraps(original, updated=())
    def wrapper(*args, **kwargs):
        attrs = attrs_of(args) if attrs_of else None
        return rec.call(name, original, args, kwargs, attrs, after, cpu)

    setattr(owner, attr, wrapper)


def install() -> Recorder:
    """Wrap the layer boundaries of cardioprompt; returns the recorder."""
    rec = Recorder()
    cli = importlib.import_module("cardioprompt.cli")
    experiment = importlib.import_module("cardioprompt.experiment")
    gateway = importlib.import_module("cardioprompt.gateway")
    search = importlib.import_module("cardioprompt.models.search")
    zoo = importlib.import_module("cardioprompt.models.zoo")
    adapters = importlib.import_module("requests.adapters")

    # data
    _wrap(rec, cli, "prepare_data", "data.prepare")
    _wrap(rec, experiment, "knn_impute", "data.knn_impute")
    # models.search
    _wrap(rec, experiment, "randomized_search", "search", attrs_of=lambda a: {"family": a[0]}, cpu=True)
    _wrap(rec, search, "train", "search.fit")
    _wrap(rec, zoo.TrainedModel, "predict", "model.predict")
    # models.importance
    _wrap(rec, experiment, "feature_importance", "importance", attrs_of=lambda a: {"family": a[0].family})
    # models.serialize
    _wrap(rec, cli, "save_model", "serialize.save", after=lambda a, r: {"bytes": Path(a[1]).stat().st_size})
    _wrap(rec, cli, "load_model", "serialize.load")
    # dk
    _wrap(rec, experiment, "render_dk", "dk.render")
    # prompts
    _wrap(rec, gateway, "sample_examples", "prompts.sample")
    _wrap(rec, gateway, "assemble_prompt", "prompts.assemble", after=lambda a, r: {"bytes": len(r.text.encode())})
    # gateway: a completion that made no HTTP send was answered from the cache
    _wrap(rec, experiment, "classify_batch", "gateway.classify")
    _wrap(rec, cli, "JsonlCache", "gateway.cache_open")
    original_complete = gateway.complete

    @functools.wraps(original_complete)
    def complete(*args, **kwargs):
        rec.reset_sends()
        return rec.call("gateway.complete", original_complete, args, kwargs, after=lambda a, r: {"sends": rec.sends()})

    gateway.complete = complete
    original_send = adapters.HTTPAdapter.send

    @functools.wraps(original_send)
    def send(*args, **kwargs):
        rec.count_send()
        return original_send(*args, **kwargs)

    adapters.HTTPAdapter.send = send
    # metrics and experiment
    _wrap(rec, experiment, "confusion", "metrics.score")
    _wrap(rec, experiment, "metrics_row", "metrics.score")
    _wrap(rec, cli, "run_ml_baselines", "experiment.ml_baselines")
    _wrap(rec, cli, "run_prompt_grid", "experiment.prompt_grid")
    _wrap(rec, experiment, "emit_report", "experiment.emit_report")
    return rec
