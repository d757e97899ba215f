"""Per-layer wall time for the traced run.

:class:`LayerClock` wraps the public functions of each layer where its
caller looks the name up (``repro.simulator.dc.solve_linear``, not
``repro.simulator.assembly.solve_linear``).  The wrappers call through
unchanged; they only count calls and add up wall time.  Nested wrapped
calls are subtracted from their caller's *self* time, which is how the
DC assembly time is reported without the device evaluations inside it.

A module the program has not imported yet is patched when the program
imports it, so a traced command loads exactly the modules the untimed
command would.  Wrappers are installed only for the traced half of a
run; the timed half never sees them.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.util
import sys
import time
from types import ModuleType
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, module, attribute) -- one entry per place a caller looks a
#: name up.  ``Class.method`` attributes patch the class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # synthesis: the CLI imports it from the package, the batch engine
    # and the verify workload from the designer module
    ("synth", "repro.opamp", "synthesize"),
    ("synth", "repro.opamp.designer", "synthesize"),
    # static analysis entry points, looked up on the package by the CLI
    ("lint.deck", "repro.lint", "lint_spice_deck"),
    ("lint.topology", "repro.lint", "lint_topology"),
    ("lint.kb", "repro.lint", "lint_knowledge_base"),
    ("lint.dataflow", "repro.lint", "lint_dataflow"),
    ("lint.units", "repro.lint", "lint_units"),
    ("ast.parse", "ast", "parse"),
    # simulator: device model, system construction, DC Newton assembly
    # and the DC linear solve
    ("dc.device_eval", "repro.devices.mosfet", "MosfetModel.evaluate"),
    ("dc.system", "repro.simulator.mna", "MnaSystem.__init__"),
    ("dc.stamp_plan", "repro.simulator.assembly", "StampPlan.__init__"),
    ("dc.assemble", "repro.simulator.mna", "MnaSystem.assemble_dc_system"),
    ("dc.assemble", "repro.simulator.mna", "MnaSystem.assemble_dc_residual"),
    ("dc.lu", "repro.simulator.dc", "solve_linear"),
    # result cache, and the key computation as the batch engine calls it
    ("cache.get", "repro.cache.store", "ResultCache.get"),
    ("cache.put", "repro.cache.store", "ResultCache.put"),
    ("cache.key", "repro.batch.engine", "content_key"),
    ("cache.key", "repro.batch.engine", "spec_key"),
    ("cache.key", "repro.batch.engine", "process_key"),
)

#: Per layer: [calls, total seconds, self seconds].
Snapshot = Dict[str, List[float]]


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Runs ``on_load(module)`` right after one of ``names`` is imported."""

    def __init__(self, names: Sequence[str], on_load: Callable[[ModuleType], None]):
        self.names = set(names)
        self.on_load = on_load

    def find_spec(self, fullname: str, path: Any, target: Any = None) -> Any:
        if fullname not in self.names:
            return None
        self.names.discard(fullname)  # the lookup below must not recurse
        spec = importlib.util.find_spec(fullname)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module
        on_load = self.on_load

        def exec_then_patch(module: ModuleType) -> None:
            exec_module(module)
            on_load(module)

        spec.loader.exec_module = exec_then_patch  # type: ignore[method-assign]
        return spec


class LayerClock:
    """Call counts and wall time per layer, with self time."""

    def __init__(self) -> None:
        self.stats: Snapshot = {}
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[Any, str, Any]] = []
        self._finder: Optional[_PatchOnImport] = None

    # -- timing --------------------------------------------------------
    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        stack = self._stack
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            children = [0.0]
            stack.append(children)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]

        return timed

    def snapshot(self) -> Snapshot:
        return {layer: list(values) for layer, values in self.stats.items()}

    # -- installation --------------------------------------------------
    def _patch(self, module: ModuleType) -> None:
        for layer, module_name, attribute in TARGETS:
            if module_name != module.__name__:
                continue
            owner: Any = module
            *path, name = attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[name] if path else getattr(owner, name)
            self._undo.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original))

    def install(self) -> None:
        for layer, _, _ in TARGETS:
            self.stats.setdefault(layer, [0, 0.0, 0.0])
        modules = sorted({module for _, module, _ in TARGETS})
        later = []
        for name in modules:
            if name in sys.modules:
                self._patch(sys.modules[name])
            else:
                later.append(name)
        if later:
            self._finder = _PatchOnImport(later, self._patch)
            sys.meta_path.insert(0, self._finder)

    def uninstall(self) -> None:
        if self._finder is not None and self._finder in sys.meta_path:
            sys.meta_path.remove(self._finder)
        self._finder = None
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerClock":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def merge(into: Snapshot, other: Snapshot, sign: float = 1.0) -> None:
    for layer, values in other.items():
        mine = into.setdefault(layer, [0, 0.0, 0.0])
        for i, value in enumerate(values):
            mine[i] += sign * value


def difference(after: Snapshot, before: Snapshot) -> Snapshot:
    out = {layer: list(values) for layer, values in after.items()}
    merge(out, before, sign=-1.0)
    return out


def mean_ms(stats: Snapshot, layer: str, per: Optional[float] = None) -> float:
    """Total ms of ``layer`` per call (or per ``per`` operations)."""
    calls, total, _ = stats.get(layer, (0, 0.0, 0.0))
    base = per if per is not None else calls
    return total * 1e3 / base if base else 0.0


def self_ms(stats: Snapshot, layer: str, per: float) -> float:
    _, _, own = stats.get(layer, (0, 0.0, 0.0))
    return own * 1e3 / per if per else 0.0


def calls(stats: Snapshot, layer: str, per: float) -> float:
    count = stats.get(layer, (0, 0.0, 0.0))[0]
    return count / per if per else 0.0
