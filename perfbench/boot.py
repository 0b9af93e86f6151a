"""Traced-run bootstrap: wrap each layer's public functions, then run the
same entry point a user runs.

    python perfbench/boot.py --spans-dir DIR -- repro.harness.runner [args...]
    python perfbench/boot.py --spans-dir DIR -- repro serve [args...]

Nothing in the program changes: after importing the entry module this
script replaces the layer functions listed below with timing wrappers,
in the defining module, on the class, and in every loaded ``repro``
module that imported them by name, then calls the entry's ``main``.

A span is ``[id, name, start, end, parent, task, note]``: ``start`` and
``end`` are ``time.perf_counter()`` readings (one monotonic clock for
every process on the host), ``parent`` is the enclosing span in the same
thread or asyncio task (-1 for none), ``task`` an experiment id or serve
request trace id, and ``note`` a per-function detail (cache miss, hit
flag, batch size).  Spans stay in memory and are written as one JSON file
per process, ``DIR/<pid>.json``, when the entry returns; forked sweep
workers write theirs when ``worker_entry`` returns, and the serve daemon
when it has drained after SIGTERM.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import pathlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional

perf_counter = time.perf_counter
HERE = pathlib.Path(__file__).resolve().parent

#: Span name -> ``module:qualname`` of one wrapped function or method.
FUNCTIONS = {
    "core.random_conv_weights": "repro.core.reference:random_conv_weights",
    "harness.export": "repro.harness.export:write_results",
    "systolic.simulate_conv": "repro.systolic.simulator:TPUSim.simulate_conv",
    "systolic.simulate_conv_batch": "repro.systolic.simulator:TPUSim.simulate_conv_batch",
    "store.load": "repro.store.store:ResultStore.load",
    "store.save": "repro.store.store:ResultStore.save",
    "store.codec.decode": "repro.store.codec:decode_value",
    "store.codec.encode": "repro.store.codec:encode_value",
    "store.serve.parse": "repro.store.serve:Query.parse",
    "store.serve.submit": "repro.store.serve:SimulationService.submit",
    "store.serve.price_batch": "repro.store.serve:SimulationService._price_batch",
    "store.serve.encode": "repro.store.serve:result_payload",
    "store.serve.answer": "repro.store.serve:ReproServer._answer",
    "dse.evaluate": "repro.dse.evaluate:evaluate_task",
    "dse.queue.claim": "repro.dse.queue:WorkQueue.claim",
    "dse.queue.complete": "repro.dse.queue:WorkQueue.complete",
    "dse.worker_spawn": "repro.dse.engine:_WorkerPool._spawn_one",
    "resilience.crash_safe_append": "repro.resilience.atomic:crash_safe_append",
}

#: Span name -> modules (``pkg.*`` = every module of the package) whose
#: public functions, and public methods of the classes they define, it wraps.
PACKAGES = {
    "gpu.model": ["repro.gpu.*"],
    "oracle": ["repro.oracle.*"],
    "memory": ["repro.memory.*"],
    "systolic.dual_mxu": ["repro.systolic.dual_mxu"],
    "perf.schedule_arrays": ["repro.perf.schedule_arrays"],
    "perf.batch": ["repro.perf.batch"],
}

SPANS: List[list] = []
#: ``[request trace id, submit time, answer time]`` per admitted serve query.
ANSWERS: List[list] = []
_ids = itertools.count()
_RAISED = object()  # the wrapped call raised: no note
_current: contextvars.ContextVar = contextvars.ContextVar("bench_span", default=-1)
_task: contextvars.ContextVar = contextvars.ContextVar("bench_task", default=None)


def _sim_misses() -> int:
    from repro.perf.cache import SIM_CACHE

    return SIM_CACHE.misses


def _note_miss(before, args, kwargs, result):
    return _sim_misses() - before


def _note_found(before, args, kwargs, result):
    return bool(result[0])


def _note_batch(before, args, kwargs, result):
    return len(args[1])


def _note_submit(before, args, kwargs, future):
    """Time the admitted query's answer: when its future resolves."""
    query = args[1]
    trace_id = query.ctx.trace_id if query.ctx is not None else None
    record = [trace_id, before, None]
    ANSWERS.append(record)

    def _done(_future, record=record):
        record[2] = perf_counter()

    future.add_done_callback(_done)
    return None


def _task_request(args, kwargs):
    ctx = kwargs.get("ctx", args[4] if len(args) > 4 else None)
    return ctx.trace_id if ctx is not None else None


#: Span name -> (value taken before the call, note computed after it).
NOTES: Dict[str, tuple] = {
    "systolic.simulate_conv": (_sim_misses, _note_miss),
    "store.load": (None, _note_found),
    "store.serve.price_batch": (None, _note_batch),
    "store.serve.submit": (perf_counter, _note_submit),
}

#: Span name -> how the span names the task it belongs to.
TASKS: Dict[str, Callable] = {"store.serve.answer": _task_request}


def wrap(name: str, fn: Callable, task: Optional[str] = None) -> Callable:
    """A timing wrapper around ``fn`` recording one span per call."""
    before_fn, note_fn = NOTES.get(name, (None, None))
    task_fn = TASKS.get(name)

    def enter(args, kwargs):
        span_id = next(_ids)
        parent = _current.get()
        token = _current.set(span_id)
        task_token = None
        if task is not None:
            task_token = _task.set(task)
        elif task_fn is not None:
            task_token = _task.set(task_fn(args, kwargs))
        before = before_fn() if before_fn is not None else None
        return span_id, parent, token, task_token, before

    def leave(state, started, args, kwargs, result):
        span_id, parent, token, task_token, before = state
        ended = perf_counter()
        note = None
        if note_fn is not None and result is not _RAISED:
            note = note_fn(before, args, kwargs, result)
        SPANS.append([span_id, name, started, ended, parent, _task.get(), note])
        if task_token is not None:
            _task.reset(task_token)
        _current.reset(token)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            state = enter(args, kwargs)
            started = perf_counter()
            result = _RAISED
            try:
                result = await fn(*args, **kwargs)
                return result
            finally:
                leave(state, started, args, kwargs, result)

        async_wrapper.__bench_wrapped__ = fn
        return async_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        state = enter(args, kwargs)
        started = perf_counter()
        result = _RAISED
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            leave(state, started, args, kwargs, result)

    wrapper.__bench_wrapped__ = fn
    return wrapper


def _wrappable(obj: Any) -> bool:
    return (
        inspect.isfunction(obj)
        and not inspect.isgeneratorfunction(obj)
        and not inspect.isasyncgenfunction(obj)
        and not hasattr(obj, "__bench_wrapped__")
    )


class _Patcher:
    """Collects ``original -> wrapper`` and applies it everywhere."""

    def __init__(self) -> None:
        self.replace: Dict[int, Callable] = {}

    def function(self, name: str, module, attr: str, task: Optional[str] = None) -> None:
        fn = getattr(module, attr)
        if _wrappable(fn):
            wrapped = wrap(name, fn, task)
            self.replace[id(fn)] = wrapped
            setattr(module, attr, wrapped)

    def method(self, name: str, cls: type, attr: str) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            if _wrappable(raw.__func__):
                setattr(cls, attr, type(raw)(wrap(name, raw.__func__)))
        elif _wrappable(raw):
            setattr(cls, attr, wrap(name, raw))

    def module(self, name: str, module) -> None:
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for method in list(vars(obj)):
                    raw = obj.__dict__[method]
                    if not method.startswith("_") and (
                        inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))
                    ):
                        self.method(name, obj, method)
            else:
                self.function(name, module, attr)

    def apply_everywhere(self) -> None:
        """Rebind every by-name import of a wrapped function."""
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                wrapped = self.replace.get(id(obj))
                if wrapped is not None:
                    setattr(module, attr, wrapped)


def _modules(pattern: str) -> list:
    if not pattern.endswith(".*"):
        return [importlib.import_module(pattern)]
    import pkgutil

    package = importlib.import_module(pattern[:-2])
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


class _TimedSleep:
    """``time`` for the sweep coordinator, with ``sleep`` as a span."""

    def __init__(self, name: str) -> None:
        self.sleep = wrap(name, time.sleep)

    def __getattr__(self, attr: str) -> Any:
        return getattr(time, attr)


def install() -> None:
    """Wrap every layer function named above."""
    patcher = _Patcher()
    for name, target in FUNCTIONS.items():
        mod_name, qualname = target.split(":")
        module = importlib.import_module(mod_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            patcher.method(name, getattr(module, cls_name), attr)
        else:
            patcher.function(name, module, qualname)
    for name, patterns in PACKAGES.items():
        for pattern in patterns:
            for module in _modules(pattern):
                patcher.module(name, module)
    runner = importlib.import_module("repro.harness.runner")
    for exp_id, fn in list(runner.EXPERIMENTS.items()):
        wrapped = wrap(f"harness.exp.{exp_id}", fn, task=exp_id)
        patcher.replace[id(fn)] = wrapped
        runner.EXPERIMENTS[exp_id] = wrapped
    engine = importlib.import_module("repro.dse.engine")
    engine.time = _TimedSleep("dse.coordinator_idle")
    worker_entry = engine.worker_entry
    engine.worker_entry = functools.partial(_worker_entry, worker_entry)
    patcher.apply_everywhere()


def _cache_counts() -> Dict[str, int]:
    """The memo's probe tiers as counted by the status beacon.

    ``cache_stats()`` is reset by the runner before every experiment; the
    beacon sees the same probe stream and is never reset within a process.
    """
    from repro.obs.flight.beacon import get_beacon

    return dict(get_beacon().cache)


class _Dump:
    spans_dir: Optional[pathlib.Path] = None
    import_s = 0.0
    cache_base: Dict[str, int] = {}


def dump(role: str) -> None:
    """Write this process's spans, answers and cache counters."""
    counts = _cache_counts()
    doc = {
        "role": role,
        "import_s": _Dump.import_s,
        "cache": {k: v - _Dump.cache_base.get(k, 0) for k, v in counts.items()},
        "spans": sorted(SPANS),
        "answers": ANSWERS,
    }
    path = _Dump.spans_dir / f"{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(doc))
    os.replace(tmp, path)


def _worker_entry(original, *args, **kwargs):
    """A forked sweep worker: start an empty span buffer, dump on return.

    The fork happened inside the coordinator's ``dse.worker_spawn`` span,
    so the worker also starts with no enclosing span.
    """
    SPANS.clear()
    ANSWERS.clear()
    _current.set(-1)
    _Dump.import_s = 0.0
    _Dump.cache_base = _cache_counts()
    try:
        return original(*args, **kwargs)
    finally:
        dump("worker")


def main() -> int:
    argv = sys.argv[1:]
    if len(argv) < 4 or argv[0] != "--spans-dir" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    _Dump.spans_dir = pathlib.Path(argv[1])
    # The program must not see this directory's modules on its path.
    sys.path[:] = [p for p in sys.path if pathlib.Path(p or ".").resolve() != HERE]
    module, program_argv = argv[3], argv[4:]
    started = perf_counter()
    entry = importlib.import_module(
        "repro.__main__" if module == "repro" else module
    )
    ended = perf_counter()
    _Dump.import_s = ended - started
    SPANS.append([next(_ids), "harness.import", started, ended, -1, None, None])
    install()
    try:
        return entry.main(program_argv)
    finally:
        dump("main")


if __name__ == "__main__":
    sys.exit(main())
