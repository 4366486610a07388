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
from typing import Callable, Iterator, Sequence, TypeVar

__all__ = ["ordered_map"]

Block = TypeVar("Block")
Result = TypeVar("Result")


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered_map(
    fn: Callable[..., Result], blocks: Sequence[Block], scratch: Callable[[Block], object] | None = None
) -> Iterator[Result]:
    """fn(block) for each of the `blocks`, yielded in block order.

    min(_cpus(), len(blocks)) threads make the calls, each call in a copy of the
    caller's context, so that numpy's errstate holds in the threads too.  One
    worker means no thread: the calls run in the caller's thread.  Blocks are
    pulled from `blocks` in the caller's thread and only as they are needed:
    at most 2 * workers are taken and not yet yielded.  The first call to fail,
    in block order, raises where its result would be yielded.  Every thread is
    joined before the map returns, raises or is closed.  With `scratch`, each
    thread that makes calls (the caller's, inline) makes its own buffers with
    scratch(block) for the first block it takes, then calls fn(block, buffers).
    """
    workers = min(_cpus(), len(blocks))

    def thread_call() -> Callable[[Block], Result]:  # fn for one thread
        buffers = []

        def call(block):
            if not buffers:
                buffers.append(scratch(block))
            return fn(block, buffers[0])

        return fn if scratch is None else call

    if workers <= 1:
        yield from map(thread_call(), blocks)
        return
    import queue  # here, so that a process that never starts a thread does not import it

    tasks = queue.SimpleQueue()  # (context, block, reply) per block, then one None per thread
    ended = threading.Event()

    def work() -> None:
        call = thread_call()
        while (task := tasks.get()) is not None:
            context, block, reply = task
            if ended.is_set():  # the map has ended, and no one reads this reply
                continue
            try:
                reply.put((True, context.run(call, block)))
            except BaseException as exc:  # re-raised in the caller's thread, in block order
                reply.put((False, exc))

    def result(reply: queue.SimpleQueue):
        ok, value = reply.get()
        if not ok:
            raise value
        return value

    threads = []
    try:
        for i in range(workers):
            thread = threading.Thread(target=work, name=f"clifract-pool-{i}")
            thread.start()
            threads.append(thread)
        pending: deque[queue.SimpleQueue] = deque()
        for block in blocks:
            reply = queue.SimpleQueue()
            tasks.put((contextvars.copy_context(), block, reply))
            pending.append(reply)
            if len(pending) == 2 * workers:
                yield result(pending.popleft())
        while pending:
            yield result(pending.popleft())
    finally:
        ended.set()
        for _ in threads:
            tasks.put(None)
        for thread in threads:
            thread.join()
