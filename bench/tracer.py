"""Outside-in tracer: times a package's functions without touching its code.

Installing a target replaces every binding of the function in the
package's modules (a name imported with `from .x import f` is a second
binding) with a wrapper that records a span: name, start, end, parent
span and whether it raised.  Self time is a span's duration minus the
time covered by its direct children.  A target that no longer exists is
reported as absent instead of failing the run.
"""

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    failed: int = 0


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, raised]
        self._stack = []
        self.stats = defaultdict(SpanStats)
        self.child_calls = Counter()  # (parent name, child name) -> calls
        self.counters = Counter()
        self.absent = []

    def wrap(self, name, fn, arg_hook=None):
        """fn with a span named `name` around each call."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if arg_hook is not None:
                args = arg_hook(self, args)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    @contextmanager
    def installed(self, package, targets):
        """Patch every (span name, module, qualified name, arg hook) target
        of `package` for the duration of the block."""
        patches = []
        try:
            for name, module, qualname, arg_hook in targets:
                patches += self._install(package, name, module, qualname, arg_hook)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _install(self, package, name, module, qualname, arg_hook):
        owner = sys.modules.get(f"{package}.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.append(name)
            return []
        wrapper = self.wrap(name, original, arg_hook)
        if path:  # a method: one binding, on its class
            setattr(owner, attr, wrapper)
            return [(owner, attr, original)]
        patches = []
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    patches.append((mod, key, original))
        return patches

    def drain(self):
        """Fold the recorded spans into per-name totals and forget them."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
                self.child_calls[spans[parent][0], name] += 1
        for (name, start, end, _, raised), child in zip(spans, covered):
            st = self.stats[name]
            st.calls += 1
            st.self_s += end - start - child
            st.failed += raised
        spans.clear()


def count_first_arg(counter):
    """Arg hook that counts the calls of the wrapped function's first
    argument (the residual g of a scalar solve) under `counter`."""

    def hook(tracer, args):
        fn = args[0]

        def counted(*a, **k):
            tracer.counters[counter] += 1
            return fn(*a, **k)

        return (counted, *args[1:])

    return hook
