"""An ordered map over independent blocks, on one thread per CPU the process may use.

The Clifford product's point blocks, the interpolating solver's rows and the
CSV writer's and reader's blocks run through `ordered_map`.  Their work is
numpy code that releases the interpreter lock, so the threads overlap.  No
block's result depends on the thread that computed it, so every output is the
same on any number of CPUs; with one CPU (under `taskset`, say) the map runs
in the calling thread.
"""

from __future__ import annotations

import contextvars
import os
import threading
from collections import deque
from typing import Callable, Iterable, Iterator, TypeVar

__all__ = ["ordered_map"]

Block = TypeVar("Block")
Result = TypeVar("Result")


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(fn: Callable[[Block], Result], blocks: Iterable[Block], count: int) -> Iterator[Result]:
    """fn(block) for each of the `count` blocks, yielded in block order.

    min(_cpus(), count) threads make the calls, each call in a copy of the
    caller's context, so that numpy's errstate holds in the threads too.  One
    worker means no thread: the calls run in the caller's thread.  Blocks are
    pulled from `blocks` in the caller's thread and only as they are needed:
    at most 2 * workers are taken and not yet yielded.  The first call to fail,
    in block order, raises where its result would be yielded.  Every thread is
    joined before the map returns, raises or is closed.
    """
    workers = min(_cpus(), count)
    if workers <= 1:
        yield from map(fn, blocks)
        return
    state = threading.Condition()
    todo: deque = deque()  # (index, context, block) not yet started
    done: dict[int, tuple[bool, object]] = {}
    closed = False

    def work() -> None:
        while True:
            with state:
                state.wait_for(lambda: todo or closed)
                if not todo:
                    return
                index, context, block = todo.popleft()
            try:
                outcome = True, context.run(fn, block)
            except BaseException as exc:  # re-raised in the caller's thread, in block order
                outcome = False, exc
            with state:
                done[index] = outcome
                state.notify_all()

    def result(index: int):
        with state:
            state.wait_for(lambda: index in done)
            ok, value = done.pop(index)
        if not ok:
            raise value
        return value

    threads = []
    try:
        for i in range(workers):
            thread = threading.Thread(target=work, name=f"clifract-pool-{i}")
            thread.start()
            threads.append(thread)
        pending: deque[int] = deque()
        for index, block in enumerate(blocks):
            with state:
                todo.append((index, contextvars.copy_context(), block))
                state.notify()
            pending.append(index)
            if len(pending) == 2 * workers:
                yield result(pending.popleft())
        while pending:
            yield result(pending.popleft())
    finally:
        with state:
            closed = True
            todo.clear()
            state.notify_all()
        for thread in threads:
            thread.join()
