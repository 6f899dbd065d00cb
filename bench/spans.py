"""Per-module spans and counts, recorded from outside the program.

``install()`` wraps every public function of the hx modules and puts the
wrapper in every hx module that imported that function, so calls are
seen whichever module makes them. A span stack attributes each stretch of
time to the module of the innermost open span, which gives exact self
times per module. The program's own code is not changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("intlinalg", "graphs", "spanning", "complexes", "winding", "verify", "documents", "cli")


def _max_bits(values) -> int:
    return max((abs(v).bit_length() for v in values), default=0)


class Recorder:
    """Spans and counts of one traced stretch of work."""

    def __init__(self):
        self.stack: list[str] = []  # "module.function" of each open span
        self.last = time.perf_counter()
        self.self_s: dict[str, float] = defaultdict(float)  # module -> seconds innermost
        self.inclusive_s: dict[str, float] = defaultdict(float)  # function -> seconds, outermost calls only
        self.calls: dict[str, int] = defaultdict(int)
        self.open: dict[str, int] = defaultdict(int)
        self.max_bits: dict[str, int] = defaultdict(int)
        self.cycletrees_found = 0  # cycletrees returned by calls that enumerated
        self.subsets_tested = 0  # connectivity tests made directly by cycletree enumeration
        self.matrices = 0

    def _switch(self) -> float:
        now = time.perf_counter()
        if self.stack:
            self.self_s[self.stack[-1].split(".", 1)[0]] += now - self.last
        self.last = now
        return now

    def enter(self, key: str) -> float:
        now = self._switch()
        if key == "graphs.spanning_subgraph_connected" and self.stack and self.stack[-1] == "spanning.cycletrees":
            self.subsets_tested += 1
        self.stack.append(key)
        self.calls[key] += 1
        self.open[key] += 1
        return now

    def leave(self, key: str, start: float) -> None:
        now = self._switch()
        self.stack.pop()
        self.open[key] -= 1
        if self.open[key] == 0:
            self.inclusive_s[key] += now - start

    def observe(self, key: str, result, tested_before: int) -> None:
        if key == "winding.standard_harmonic_cycle":
            self.max_bits["winding.lambda"] = max(self.max_bits["winding.lambda"], _max_bits(result))
        elif key == "intlinalg.smith_normal_form":
            bits = max(_max_bits(result.s.entries), _max_bits(result.t.entries))
            self.max_bits[key] = max(self.max_bits[key], bits)
        elif key == "spanning.cycletrees" and self.subsets_tested > tested_before:
            self.cycletrees_found += len(result)

    def wrap(self, key: str, fn):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    start = self.enter(key)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.leave(key, start)
                    yield item

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tested_before = self.subsets_tested
            start = self.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(key, start)
            self.observe(key, result, tested_before)
            return result

        return wrapper

    def summary(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "max_bits": dict(self.max_bits),
            "cycletrees_found": self.cycletrees_found,
            "subsets_tested": self.subsets_tested,
            "matrices": self.matrices,
        }


def _is_traceable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def install(recorder: Recorder):
    """Wrap the public hx functions; return a callable that restores the originals."""
    modules = {name: importlib.import_module(f"hx.{name}") for name in MODULES}
    wrappers = {}
    for name, module in modules.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not _is_traceable(obj):
                continue
            if obj.__module__ == module.__name__:
                wrappers[id(obj)] = recorder.wrap(f"{name}.{attr}", obj)
    saved = []
    for module in modules.values():
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers and _is_traceable(obj):
                saved.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    int_matrix = modules["intlinalg"].IntMatrix
    post_init = int_matrix.__post_init__

    def counting_post_init(self):
        recorder.matrices += 1
        post_init(self)

    int_matrix.__post_init__ = counting_post_init

    def uninstall():
        for module, attr, obj in saved:
            setattr(module, attr, obj)
        int_matrix.__post_init__ = post_init

    return uninstall
