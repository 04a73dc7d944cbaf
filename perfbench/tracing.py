"""Per-function timing of the rirdist library, installed from outside it.

The tracer replaces public functions with timing wrappers by patching
module attributes: every ``rirdist`` module that holds the original
function object under some name gets the wrapper under that name, so
calls made through ``from .x import f`` bindings, through the package
root and through a module's own globals are all seen. Nothing under
``src/`` is edited, and :meth:`Tracer.uninstall` puts every original
back.

Each wrapper keeps, per traced name, the call count and the self time:
the call's duration minus the time spent in traced calls made from
inside it. The program is single-threaded, so one stack
of open calls is enough and no layer ever waits on another.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from dataclasses import dataclass, field

# Traced names per rirdist module, in report order.
TARGETS = {
    "synth": ("synthesize_rir", "image_source_rir", "normalize_rir", "sample_scenes"),
    "acoustics": ("analyze_rir", "schroeder_edc", "estimate_t60", "detect_direct_path",
                  "compute_drr", "early_reflection_profile"),
    "filtering": ("build_reference_profile", "apply_quality_filter", "filter_batch"),
    "estimator": ("extract_features", "grid_search", "train", "evaluate"),
    "dataio": ("read_wav", "write_wav", "read_jsonl", "write_jsonl", "write_json"),
    "cli": ("cmd_generate", "cmd_analyze", "cmd_filter", "cmd_train", "cmd_eval",
            "cmd_report"),
}

# Names whose per-call durations are kept for percentiles.
SAMPLED = {"synth.synthesize_rir", "acoustics.analyze_rir"}


class TraceError(RuntimeError):
    """The tracer could not find, or did not see, a function it must time."""


@dataclass
class CallStats:
    calls: int = 0
    self_s: float = 0.0
    durations_s: list | None = None
    counters: dict = field(default_factory=dict)

    def bump(self, counter: str, amount) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount


def _observe_wav_bytes(stats, args, kwargs, result):
    stats.bump("bytes", os.path.getsize(args[0] if args else kwargs["path"]))


def _observe_quality_filter(stats, args, kwargs, result):
    stats.bump("accepted", int(result.accepted))


def _observe_grid_search(stats, args, kwargs, result):
    _, table = result
    stats.bump("cells_failed", sum(cell.error is not None for cell in table))


# Extra counts taken from a call's arguments or result, outside its timing.
OBSERVERS = {
    "dataio.read_wav": _observe_wav_bytes,
    "dataio.write_wav": _observe_wav_bytes,
    "filtering.apply_quality_filter": _observe_quality_filter,
    "estimator.grid_search": _observe_grid_search,
}


class Tracer:
    """Times every name in :data:`TARGETS` while installed."""

    def __init__(self):
        self.stats = {f"{mod}.{name}": CallStats(durations_s=[] if f"{mod}.{name}" in SAMPLED
                                                 else None)
                      for mod, names in TARGETS.items() for name in names}
        self._open_child_s: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Patch every binding of every target; raises TraceError if one is missing."""
        loaded = [mod for name, mod in list(sys.modules.items())
                  if mod is not None and (name == "rirdist" or name.startswith("rirdist."))]
        try:
            for mod_name, names in TARGETS.items():
                home = importlib.import_module(f"rirdist.{mod_name}")
                for name in names:
                    original = getattr(home, name, None)
                    if not callable(original):
                        raise TraceError(f"rirdist.{mod_name}.{name} is missing")
                    key = f"{mod_name}.{name}"
                    wrapper = self._wrap(key, original, OBSERVERS.get(key))
                    for module in loaded:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._patches.append((module, attr, original))
                                setattr(module, attr, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    def _wrap(self, key, original, observer):
        stats = self.stats[key]
        open_child_s = self._open_child_s
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            open_child_s.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child_s = open_child_s.pop()
                if open_child_s:
                    open_child_s[-1] += elapsed
                stats.calls += 1
                stats.self_s += elapsed - child_s
                if stats.durations_s is not None:
                    stats.durations_s.append(elapsed)
            if observer is not None:
                observer(stats, args, kwargs, result)
            return result

        return wrapper
