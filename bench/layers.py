"""Per-layer tracing from outside the package.

Each traced function is replaced, in every `laoa` module that holds a
reference to it, by a wrapper that times the call and keeps the time its
traced children took, so a function's self time is its duration minus its
children's.  A function that a later version renames or removes is reported
as missing instead of failing the run.
"""

import importlib
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layer (module of `laoa`) -> the functions wrapped in it.
LAYERS = {
    "array_model": ("steering_vector", "direction_from_electrical", "psi_from_direction", "xi_from_direction"),
    "synthesis": ("synthesize", "generate_sources", "generate_noise", "build_lp_system"),
    "linalg": ("svd", "solve_coeffs"),
    "rooting": ("find_roots", "select_unit_roots", "electrical_angles_from_roots"),
    "estimator": ("estimate_2d_aoa", "estimate_electrical", "pair_and_recover"),
    "montecarlo": ("monte_carlo", "run_trial", "_match_to_truth", "trial_seed"),
    "matio": ("read_matrix_file", "write_matrix_file"),
    "config": ("parse_config", "load_config"),
    "cli": ("main",),
}

FAILURE_TYPES = ("OutOfRange", "DegenerateElevation", "ConvergenceFailure")


def _path_arg(args, kwargs, index):
    return args[index] if len(args) > index else kwargs.get("path")


class Tracer:
    """Wraps the LAYERS functions; `install` and `uninstall` switch tracing on and off."""

    def __init__(self):
        self.calls = defaultdict(list)     # "layer.function" -> [(total_s, self_s), ...]
        self.failures = Counter()          # run_trial failure type -> count
        self.bytes = Counter()             # "layer.function" -> file bytes read or written
        self.missing = []
        self._stack = []
        self._targets = {}                 # "layer.function" -> (original, wrapper)
        self._patches = []                 # (module, attribute, original) while installed
        for layer, names in LAYERS.items():
            try:
                module = importlib.import_module(f"laoa.{layer}")
            except ImportError:
                self.missing.extend(f"{layer}.{n}" for n in names)
                continue
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    self._targets[f"{layer}.{name}"] = (fn, self._wrap(f"{layer}.{name}", fn))
                else:
                    self.missing.append(f"{layer}.{name}")

    def _wrap(self, key, fn):
        stack, calls = self._stack, self.calls[key]
        after = {
            "montecarlo.run_trial": self._count_failure,
            "matio.read_matrix_file": lambda a, k, r: self._count_bytes(key, _path_arg(a, k, 0)),
            "matio.write_matrix_file": lambda a, k, r: self._count_bytes(key, _path_arg(a, k, 1)),
        }.get(key)

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                total = time.perf_counter() - t0
                children = stack.pop()
                if stack:
                    stack[-1] += total
                calls.append((total, total - children))
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_failure(self, args, kwargs, result):
        failure = getattr(result, "failure", None)
        if failure is not None:
            self.failures[failure] += 1

    def _count_bytes(self, key, path):
        self.bytes[key] += os.path.getsize(path)

    def install(self):
        originals = {id(orig): wrapper for orig, wrapper in self._targets.values()}
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "laoa" or modname.startswith("laoa.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    # --- summaries ---------------------------------------------------------

    def count(self, key) -> int:
        return len(self.calls.get(key, ()))

    def median(self, key, self_time=False) -> float:
        """Median seconds per call (0.0 if the function was never called)."""
        xs = [c[1] if self_time else c[0] for c in self.calls.get(key, ())]
        return statistics.median(xs) if xs else 0.0

    def total(self, key, self_time=False) -> float:
        return sum(c[1] if self_time else c[0] for c in self.calls.get(key, ()))

    def layer_self(self, layer) -> float:
        return sum(self.total(f"{layer}.{n}", self_time=True) for n in LAYERS[layer])

    def throughput_mb_per_s(self, key) -> float:
        t = self.total(key)
        return self.bytes[key] / t / 1e6 if t > 0 else 0.0
