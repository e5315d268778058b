"""Span tracer that wraps skewex from the outside.

The tracer replaces every public function of each layer module, and every
public method of the classes those modules define, with a wrapper that
records a span: name, start, end and the span that was open when it began.
It patches the module attribute, every ``from .x import y`` binding of the
same function in any other skewex module, and function values stored in
module-level dicts (such as the suite registry), so internal calls are
traced too.  Nothing under ``src/`` changes.

Spans live in flat arrays while the workload runs and are written out once,
after the run.  Self time and the per-layer metrics are derived from those
arrays afterwards, so the wrapper itself does the least possible work.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from time import perf_counter

LAYERS = (
    "linalg", "algebra", "maps", "sampling", "ore", "laurent", "_extension",
    "idempotents", "suites", "explorer", "serialize", "cli",
)

# Element-level helpers called once per coordinate or per matrix entry.  A
# span per call would cost more than the call and swamp the traced wall time;
# their time stays in the self time of the span that called them.
UNTRACED = frozenset({
    "linalg.rat", "linalg.vec", "linalg.zero_vec", "linalg.unit_vec",
    "linalg.vec_add", "linalg.vec_sub", "linalg.vec_scale", "linalg.is_zero_vec",
    "linalg.Mat.column", "linalg.Mat.columns", "linalg.Mat.apply",
    "linalg.Mat.from_rows", "linalg.Mat.from_columns", "linalg.Mat.identity",
    "linalg.Mat.zeros", "linalg.Mat.is_zero", "linalg.Mat.trace",
    "linalg.Mat.transpose", "linalg.Poly.of", "linalg.Poly.coeff",
    "linalg.Poly.degree", "linalg.Poly.is_zero", "linalg.Poly.is_monic",
    "linalg.Poly.zero", "linalg.Poly.one", "linalg.Poly.x",
    "algebra.Algebra.basis_element", "algebra.Algebra.element",
    "algebra.Algebra.scalar",
    "_extension.FreeModel.index", "_extension.FreeModel.slice0",
    "_extension.FreeModel.coefficient", "_extension.FreeModel.multiply",
    "_extension.FreeModel.left_multiply_base", "_extension.FreeModel.reduce_terms",
    "serialize.format_fraction", "serialize.parse_fraction",
})

# Private members that mark a phase boundary and so get a span of their own.
EXTRA = frozenset({"_extension.FreeModel.__init__"})


def _cells_of(name: str, arguments: dict) -> int:
    """rows x cols of the system entering an elimination entry point."""
    if name == "linalg.span":
        return len(arguments["vectors"]) * arguments["ambient_dim"]
    if name == "linalg.Subspace.intersect":
        a, b = arguments["self"], arguments["other"]
        return (a.dim + b.dim) * 2 * a.ambient_dim
    m = arguments["m"]
    # solve() eliminates the matrix augmented by the right-hand side
    return m.rows * (m.cols + (name == "linalg.solve"))


ELIM = frozenset({
    "linalg.rref", "linalg.solve", "linalg.inverse", "linalg.kernel",
    "linalg.span", "linalg.Subspace.intersect",
})


class Tracer:
    """Records spans around skewex calls; install() patches, uninstall() restores."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, counter: str, value: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        names_append = self.span_name.append
        parents_append = self.span_parent.append
        starts_append = self.span_start.append
        ends_append = self.span_end.append
        ends = self.span_end
        enter = self._enter_hook(name, fn)
        leave = self._leave_hook(name)

        def wrapper(*args, **kwargs):
            if enter is not None:
                args, kwargs = enter(args, kwargs)
            idx = len(ends)
            names_append(nid)
            parents_append(stack[-1] if stack else -1)
            ends_append(0.0)
            stack.append(idx)
            starts_append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if leave is not None:
                leave(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _enter_hook(self, name: str, fn):
        """A hook that sees a call's arguments before its span opens, or None."""
        if name in ELIM:
            signature = inspect.signature(fn)
            elim_ids = {self._name_id(n) for n in ELIM}

            def count_cells(args, kwargs):
                # only the outermost elimination counts: kernel() runs rref()
                # and span() on the same system
                if not (self._stack and self.span_name[self._stack[-1]] in elim_ids):
                    arguments = signature.bind(*args, **kwargs).arguments
                    self.add("linalg.elim.calls")
                    self.add("linalg.elim.cells", _cells_of(name, arguments))
                return args, kwargs

            return count_cells
        if name == "_extension.FreeModel.__init__":
            signature = inspect.signature(fn)

            def count_monomials(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                monomial_product = bound.arguments["monomial_product"]

                def counted(*inner):
                    self.add("_extension.monomial_products")
                    return monomial_product(*inner)

                bound.arguments["monomial_product"] = counted
                return bound.args, bound.kwargs

            return count_monomials
        if name == "explorer.random_explorer":
            signature = inspect.signature(fn)

            def count_trials(args, kwargs):
                self.add("explorer.trials", signature.bind(*args, **kwargs).arguments["trials"])
                return args, kwargs

            return count_trials
        return None

    def _leave_hook(self, name: str):
        if name == "sampling.nilpotent_derivations":
            return lambda result: self.add("sampling.nilpotent.returned", len(result))
        if name == "suites.run_suite":
            return lambda result: self.add("suites.checks", len(result.records))
        return None

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the layers of an imported skewex package in place."""
        wrapped: dict[object, object] = {}
        prefix = package.__name__ + "."
        for layer in LAYERS:
            mod = sys.modules[prefix + layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if name not in UNTRACED:
                        wrapped[obj] = self._wrap(name, obj)
                        self._set(mod, attr, wrapped[obj])
                elif inspect.isclass(obj):
                    self._install_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._patches.append((obj, key, value))
                            obj[key] = wrapped[value]

    def _install_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED or (attr.startswith("_") and name not in EXTRA):
                continue
            if isinstance(member, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, member.__func__)))
            elif isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def open_span(self) -> int:
        """The innermost span that has started and not ended, or -1.

        Safe in a signal handler: it only reads, and it skips a span whose
        wrapper was interrupted before its start or after its end was taken.
        """
        starts, ends = self.span_start, self.span_end
        for idx in reversed(self._stack):
            if idx < len(starts) and ends[idx] == 0.0:
                return idx
        return -1

    def add_spans(self, name: str, spans) -> None:
        """Record (parent, start, end) spans taken outside the wrappers."""
        nid = self._name_id(name)
        for parent, start, end in spans:
            self.span_name.append(nid)
            self.span_parent.append(parent)
            self.span_start.append(start)
            self.span_end.append(end)

    # -- results ---------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per span name: total self time and call count."""
        n = len(self.span_end)
        child = [0.0] * n
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = names[i]
            self_s[nid] += ends[i] - starts[i] - child[i]
            calls[nid] += 1
        return dict(zip(self.names, self_s)), dict(zip(self.names, calls))

    def calls_under(self, name: str, parent: str) -> int:
        """Spans called `name` whose direct parent is called `parent`."""
        nid, pid = self.name_ids.get(name), self.name_ids.get(parent)
        if nid is None or pid is None:
            return 0
        names, parents = self.span_name, self.span_parent
        return sum(1 for i in range(len(names))
                   if names[i] == nid and parents[i] >= 0 and names[parents[i]] == pid)

    def write(self, path: str) -> None:
        """Spans as JSON: the name table, then one [name, start, end, parent] row each."""
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"fields": ["name", "start_s", "end_s", "parent"], "names": ')
            handle.write(json.dumps(self.names))
            handle.write(', "spans": [\n')
            for i in range(len(names)):
                sep = ",\n" if i else ""
                handle.write(f"{sep}[{names[i]}, {starts[i]!r}, {ends[i]!r}, {parents[i]}]")
            handle.write("\n]}\n")
