"""Machine-speed calibration: scale measured times to a fixed machine speed.

A shared host changes how fast it runs this process by up to ~1.6x from
second to second, on both cores and in process time as well as wall time.
Raw times therefore spread across runs by more than any useful regression
bound. The benchmark times a fixed chunk of pure-Python work (``chunk``:
integer list convolution and dict stores, like the package's own inner
loops, and using none of its code) right before and after every op and,
while a ``Sampler`` is armed, every ``SAMPLE_PERIOD_S`` inside long ops
too. Each chunk is timed on the second of two passes, so it runs with warm
caches whatever the op left behind. An op's time is then reported at a
fixed reference speed::

    scaled_ms = raw_ms * REF_CHUNK_MS / median(chunk times around and in the op)

The time the sampler spends inside an op is taken out of its raw time
first. A program change moves scaled times as it moves raw ones; a change
of machine speed moves both the op and the chunks, and cancels. The report
keeps raw figures beside the scaled ones.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# Chunk time at the reference speed: about this chunk's time on a 2-vCPU
# cloud VM (Python 3.11), so scaled times read close to wall times there.
REF_CHUNK_MS = 1.2
SAMPLE_PERIOD_S = 0.1

_A = tuple(range(1, 120))
_B = tuple(range(7, 100))
_D = dict.fromkeys(range(512), 0)


def _work() -> int:
    # Stores only ints, into one new list and a dict that already holds its
    # keys: the chunk makes no object the garbage collector tracks and no
    # allocation large enough to reach the system allocator, so its time
    # does not depend on the program's heap.
    a, b, d = _A, _B, _D
    out = [0] * (len(a) + len(b) - 1)
    for i in range(len(a)):
        x = a[i]
        for j in range(len(b)):
            out[i + j] += x * b[j]
    for k in range(4000):
        d[k & 511] = out[k % len(out)]
    return sum(d.values())


_busy = False


def chunk() -> float:
    """Time one calibration chunk, in ms, after one untimed warm-up pass.

    The warm-up brings the chunk's code and data back into the CPU caches
    the op just used, so the timed pass measures machine speed rather than
    how much of the cache the program's op occupied.
    """
    global _busy
    _busy = True
    try:
        _work()
        t0 = perf_counter()
        _work()
        return (perf_counter() - t0) * 1e3
    finally:
        _busy = False


def scale(raw_ms: float, chunks_ms: list[float]) -> float:
    return raw_ms * REF_CHUNK_MS / statistics.median(chunks_ms)


class Sampler:
    """Runs a chunk on a real-time interval timer while armed.

    Signal handlers run in the main thread between bytecodes, so the chunks
    interleave with the op without a second thread or process. A tick that
    lands inside another chunk is skipped.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # (start, chunk ms, handler ms)

    def _tick(self, signum, frame) -> None:
        if not _busy:
            t0 = perf_counter()
            ms = chunk()
            self.samples.append((t0, ms, (perf_counter() - t0) * 1e3))

    def __enter__(self) -> Sampler:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self, t0: float, t1: float) -> tuple[list[float], float]:
        """Chunk times of the ticks that started in [t0, t1], and the time
        those ticks took in all; forgets every sample."""
        samples, self.samples = self.samples, []
        inside = [(ms, spent) for start, ms, spent in samples if t0 <= start <= t1]
        return [ms for ms, _ in inside], sum(spent for _, spent in inside)


def timed(fn, sampler: Sampler | None = None):
    """Run ``fn()`` between two chunks; returns (result, raw ms, scaled ms).

    The raw time excludes the ticks the sampler ran inside the op.
    """
    before = chunk()
    t0 = perf_counter()
    result = fn()
    t1 = perf_counter()
    inside, spent = sampler.take(t0, t1) if sampler is not None else ([], 0.0)
    after = chunk()
    raw = (t1 - t0) * 1e3 - spent
    return result, raw, scale(raw, [before, *inside, after])
