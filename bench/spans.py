"""Span recording around the package's public functions, from outside it.

Each traced function is replaced at the module attributes where its callers
look it up (``qwtrain.trainer.scan_window_counts`` is the name the trainer
calls, because it imported the function by name), so no file of the package
changes. A function that a refactor deletes or renames is reported as an
absent span instead of failing the run, and so is a span attribute that a
changed return type no longer provides.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field

# (span name, modules whose attribute of that name is replaced, attributes
# recorded from (args, kwargs, result)). The span name is the defining module
# and the function; the modules listed are where callers look the name up.
_WALK = "qwtrain.lackadaisical_walk"
LAYERS = (
    ("trainer.train", ("qwtrain.trainer",), None),
    ("trainer.sample_vertex", ("qwtrain.trainer",), None),
    ("weight_space.iter_displacements", ("qwtrain.trainer", "qwtrain.weight_space"),
     lambda a, kw, rows: {"rows": int(rows[1].shape[0])}),
    ("oracle.scan_window_counts", ("qwtrain.trainer", "qwtrain.oracle"),
     lambda a, kw, counts: {"windows": int(counts.size),
                            "hits": int((counts > 0).sum())}),
    ("oracle.enumerate_solutions", ("qwtrain.trainer", "qwtrain.oracle"),
     lambda a, kw, sols: {"vertices": int(a[0].z ** a[0].w),
                          "solutions": int(sols.k)}),
    ("lackadaisical_walk.evolve", ("qwtrain.trainer", _WALK),
     lambda a, kw, state: {"steps": int(a[2] if len(a) > 2 else kw["steps"])}),
    ("lackadaisical_walk.sample_outcome", ("qwtrain.trainer", _WALK), None),
    ("mlp.backprop_train", ("qwtrain.mlp",),
     lambda a, kw, res: {"epochs": int(res.epochs_used)}),
    ("mlp.init_weights", ("qwtrain.mlp",), None),
    ("mlp.mse", ("qwtrain.mlp",), None),
    ("mlp.classification_error", ("qwtrain.mlp",), None),
    ("seeding.substream", ("qwtrain.trainer", "qwtrain.weight_space",
                           "qwtrain.mlp", "qwtrain.seeding"), None),
)

ITEM = "item"


@dataclass(slots=True)
class Span:
    name: str
    parent: int  # index of the enclosing span in Tracer.spans, -1 for none
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; one thread, so one stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def item(self):
        """The root span of one benchmark item."""
        span = self._open(ITEM)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn, measure):
        tracer = self

        def attrs(args, kwargs, result):
            if measure is None:
                return {}
            try:
                return measure(args, kwargs, result)
            except (AttributeError, IndexError, KeyError, TypeError):
                return {}

        if inspect.isgeneratorfunction(fn):
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        span = tracer._open(name)
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        finally:
                            tracer._close(span)
                        span.attrs = attrs(args, kwargs, value)
                        yield value
                finally:
                    it.close()
        else:
            def traced(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                span.attrs = attrs(args, kwargs, result)
                return result
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, sites, measure in LAYERS:
            attr = name.rsplit(".", 1)[1]
            wrappers = {}
            for module_name in sites:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn, measure)
                setattr(module, attr, wrappers[id(fn)])
                self._patches.append((module, attr, fn))
            if not wrappers:
                self.absent.append(name)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Index:
    """Spans grouped by name, with each span's summed child time."""

    def __init__(self, spans: list[Span]):
        self.spans = spans
        self.child_time = [0.0] * len(spans)
        self.children = defaultdict(list)
        self.by_name = defaultdict(list)
        for i, s in enumerate(spans):
            self.by_name[s.name].append(i)
            if s.parent >= 0:
                self.child_time[s.parent] += s.dur
                self.children[s.parent].append(s)

    def calls(self, name: str) -> int:
        return len(self.by_name[name])

    def busy(self, name: str) -> float:
        return sum(self.spans[i].dur for i in self.by_name[name])

    def own(self, name: str) -> float:
        return sum(self.spans[i].dur - self.child_time[i] for i in self.by_name[name])

    def total(self, name: str, key: str) -> int:
        return sum(self.spans[i].attrs.get(key, 0) for i in self.by_name[name])


def layer_metrics(spans: list[Span], shifts: int, train_items: int) -> dict:
    """Per-layer metrics as {name: (value, unit)} from one traced run.

    `shifts` is the summed shift count of the run's train items, which the
    trainer reports in its results rather than through a call.
    """
    ix = _Index(spans)
    # Exact enumerations made by train(): after the first scan call of a train
    # span, an enumeration that finds no solution is a scan false positive.
    exact_calls = confirmed = false_pos = 0
    for t in ix.by_name["trainer.train"]:
        scanned = False
        for c in ix.children[t]:
            if c.name == "oracle.scan_window_counts":
                scanned = True
            elif c.name == "oracle.enumerate_solutions":
                k = c.attrs.get("solutions", 0)
                exact_calls += 1
                confirmed += k > 0
                false_pos += scanned and k == 0
    items = ix.by_name[ITEM]
    item_time = sum(spans[i].dur for i in items)
    covered = sum(ix.child_time[i] for i in items)

    ring, scan, exact = ("weight_space.iter_displacements", "oracle.scan_window_counts",
                         "oracle.enumerate_solutions")
    evolve, backprop = "lackadaisical_walk.evolve", "mlp.backprop_train"
    rows, windows = ix.total(ring, "rows"), ix.total(scan, "windows")
    vertices, epochs = ix.total(exact, "vertices"), ix.total(backprop, "epochs")
    return {
        f"{ring}.busy_s": (ix.busy(ring), "s"),
        f"{ring}.rows": (rows, "count"),
        f"{ring}.us_per_row": (1e6 * _ratio(ix.busy(ring), rows), "us"),
        f"{scan}.calls": (ix.calls(scan), "count"),
        f"{scan}.windows": (windows, "count"),
        f"{scan}.hits": (ix.total(scan, "hits"), "count"),
        f"{scan}.busy_s": (ix.busy(scan), "s"),
        f"{scan}.us_per_window": (1e6 * _ratio(ix.busy(scan), windows), "us"),
        f"{exact}.calls": (ix.calls(exact), "count"),
        f"{exact}.vertices": (vertices, "count"),
        f"{exact}.solutions": (ix.total(exact, "solutions"), "count"),
        f"{exact}.busy_s": (ix.busy(exact), "s"),
        f"{exact}.ns_per_vertex": (1e9 * _ratio(ix.busy(exact), vertices), "ns"),
        "oracle.scan_false_positives": (false_pos, "count"),
        "trainer.exact_confirm_ratio": (_ratio(confirmed, exact_calls), "ratio"),
        "trainer.windows_scanned_per_shift": (_ratio(windows, shifts + train_items), "ratio"),
        "trainer.shifts": (shifts, "count"),
        "trainer.train.self_s": (ix.own("trainer.train"), "s"),
        "trainer.sample_vertex.busy_s": (ix.busy("trainer.sample_vertex"), "s"),
        f"{evolve}.steps": (ix.total(evolve, "steps"), "count"),
        f"{evolve}.busy_s": (ix.busy(evolve), "s"),
        "lackadaisical_walk.sample_outcome.busy_s":
            (ix.busy("lackadaisical_walk.sample_outcome"), "s"),
        f"{backprop}.busy_s": (ix.busy(backprop), "s"),
        f"{backprop}.epochs": (epochs, "count"),
        f"{backprop}.us_per_epoch": (1e6 * _ratio(ix.busy(backprop), epochs), "us"),
        "mlp.init_weights.busy_s": (ix.busy("mlp.init_weights"), "s"),
        "mlp.mse.busy_s": (ix.busy("mlp.mse"), "s"),
        "mlp.classification_error.calls": (ix.calls("mlp.classification_error"), "count"),
        "mlp.classification_error.busy_s": (ix.busy("mlp.classification_error"), "s"),
        "seeding.substream.calls": (ix.calls("seeding.substream"), "count"),
        "seeding.substream.busy_s": (ix.busy("seeding.substream"), "s"),
        "trace.item_coverage": (_ratio(covered, item_time), "fraction"),
    }


def own_time_shares(spans: list[Span]) -> dict:
    """Share of the summed item time spent in each span name's own code."""
    ix = _Index(spans)
    item_time = ix.busy(ITEM)
    shares = {name: _ratio(ix.own(name), item_time) for name in ix.by_name}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
