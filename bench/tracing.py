"""Spans around calls into primeforest's public functions.

install() replaces every public function of the package's modules, in
every module namespace that refers to it, with a wrapper that records one
span per call: name, start, end, parent span and request id.  Calls made
inside the package go through module globals, so they are traced too.  A
generator function gets one span per item pulled from it.  Spans stay in
memory (compact arrays) until the pass ends.

Not wrapped: classes (Tree, Label, Forest) and primes.prime_by_index, which
runs once per label printed; their time counts as self time of the caller.
"""

import importlib
import inspect
import time
from array import array
from collections import Counter

LAYERS = ("primes", "tree_core", "codec", "forest_algebra", "generator",
          "sieve", "rationals", "cli")
EXCLUDED = {"primes.prime_by_index"}
# Functions whose result length is summed, as a count of work produced.
COUNTED = {"generator.bounded_value_trees"}


class NullTracer:
    """Stands in for Tracer in untraced passes."""

    def __init__(self):
        self.request = -1
        self.on = False


class Tracer:
    """Records spans; `request` is set by the pass before each request and
    `on` is cleared while the checks run."""

    def __init__(self):
        self.names = []
        self.request = -1
        self.on = True
        self.counts = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.req = array("i")
        self._stack = [-1]

    def _open(self, name_id):
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.req.append(self.request)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        name_id = len(self.names)
        self.names.append(name)
        counted = name in COUNTED
        if counted:
            self.counts[name] = 0

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    if not self.on:
                        yield from items
                        return
                    i = self._open(name_id)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        self._close(i)
                    yield item
        else:
            def traced(*args, **kwargs):
                if not self.on:
                    return fn(*args, **kwargs)
                i = self._open(name_id)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(i)
                if counted:
                    self.counts[name] += len(result)
                return result
        return traced

    def install(self):
        modules = [importlib.import_module("primeforest." + layer)
                   for layer in LAYERS]
        wrapped = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_") and name not in EXCLUDED):
                    wrapped[obj] = self.wrap(name, obj)
        for module in modules + [importlib.import_module("primeforest")]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    # --- analysis --------------------------------------------------------

    def __len__(self):
        return len(self.name)

    def calls(self):
        """Number of spans per function name, for names with any."""
        return {self.names[i]: n for i, n in Counter(self.name).items()}

    def busy(self, *names):
        """Seconds inside calls to any of `names`, counting a call nested
        in another call of the group once."""
        group = {self.names.index(n) for n in names if n in self.names}
        inside = bytearray(len(self.name))
        total = 0.0
        for i, (n, p) in enumerate(zip(self.name, self.parent)):
            nested = p >= 0 and (inside[p] or self.name[p] in group)
            inside[i] = nested
            if n in group and not nested:
                total += self.end[i] - self.start[i]
        return total

    def self_times(self):
        """Seconds per layer spent in its own spans, minus child spans."""
        child = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        per_layer = {}
        layer_of = [n.split(".", 1)[0] for n in self.names]
        for i, n in enumerate(self.name):
            layer = layer_of[n]
            per_layer[layer] = (per_layer.get(layer, 0.0)
                                + self.end[i] - self.start[i] - child[i])
        return per_layer

    def write(self, path):
        """One line per span: id, name, start and end in microseconds from
        the first span, parent id (-1 for none), request id."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w") as f:
            f.write("span,name,start_us,end_us,parent,request\n")
            for i in range(len(self)):
                f.write(f"{i},{self.names[self.name[i]]},"
                        f"{(self.start[i] - t0) * 1e6:.1f},"
                        f"{(self.end[i] - t0) * 1e6:.1f},"
                        f"{self.parent[i]},{self.req[i]}\n")
