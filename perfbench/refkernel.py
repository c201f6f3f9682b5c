"""A fixed reference computation that measures how fast the host is now.

The host runs other tenants' work, and its speed changes by up to 2x
within seconds. The benchmark therefore runs this kernel next to every
batch and reports each batch's time in units of the kernel's time.

The kernel does the same kinds of work as the program: Runge-Kutta
stage sums over Python lists, like the integrator, and small NumPy
least-squares solves, like the Gauss-Newton equilibrium search. It belongs
to the benchmark and must not change, or results stop being comparable.

A batch that keeps every CPU busy (the CLI's worker pool) slows down in
other ways than one thread does, so ``ParallelReference`` runs the kernel
in one helper process per CPU at once.
"""

import multiprocessing
import time

import numpy as np

# Time one kernel run took on a quiet host (Intel Xeon, 2 vCPUs, Python
# 3.11, NumPy 2.4). Normalized times are multiplied by it, so they read in
# seconds on that host.
NOMINAL_SECONDS = 0.012

_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)

# fixed data from a quadratic Weyl sequence; importing numpy.random instead
# would add to the peak RSS that the benchmark reports for the program
_WEYL = np.modf(np.arange(400 * 6 * 5) ** 2 * 0.6180339887498949)[0] - 0.5
_MATRICES = _WEYL[: 400 * 6 * 4].reshape(400, 6, 4)
_RHS = _WEYL[400 * 6 * 4 :].reshape(400, 6)


def _field(z):
    return [
        z[1],
        -z[0] + 0.1 * z[1] * z[1] - z[2],
        z[0] * z[1] - 0.5 * z[2],
        -z[3],
        0.3 * z[0],
    ]


def _stages() -> list:
    z = [1.0, 0.5, 0.2, 0.1, 0.0]
    h = 1e-3
    for _ in range(150):
        ks = [_field(z)]
        for s in range(1, 7):
            a = _A[s]
            zs = [
                z[i] + h * sum(a[j] * ks[j][i] for j in range(s))
                for i in range(5)
            ]
            ks.append(_field(zs))
        z = zs
    return z


def _solves() -> float:
    acc = 0.0
    for m, r in zip(_MATRICES, _RHS):
        delta, *_ = np.linalg.lstsq(m, r, rcond=None)
        acc += float(np.linalg.norm(delta))
    return acc


def probe() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    _stages()
    _solves()
    return time.perf_counter() - start


def slowness() -> tuple:
    """Host slowness for single-threaded work: one kernel run's wall time
    over the nominal time, for both wall and CPU time."""
    factor = probe() / NOMINAL_SECONDS
    return factor, factor


def _helper(conn, runs: int) -> None:
    while conn.recv():
        start = time.process_time()
        for _ in range(runs):
            probe()
        conn.send(time.process_time() - start)


class ParallelReference:
    """``runs`` kernel runs in each of ``processes`` helper processes at
    once. Calling it returns the host's slowness for work on every CPU:
    (wall time, summed CPU time) over their nominal values."""

    def __init__(self, processes: int, runs: int) -> None:
        self.runs = runs
        ctx = multiprocessing.get_context("fork")
        self._conns, self._procs = [], []
        for _ in range(processes):
            mine, theirs = ctx.Pipe()
            proc = ctx.Process(target=_helper, args=(theirs, runs), daemon=True)
            proc.start()
            theirs.close()
            self._conns.append(mine)
            self._procs.append(proc)

    def __enter__(self) -> "ParallelReference":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __call__(self) -> tuple:
        start = time.perf_counter()
        for conn in self._conns:
            conn.send(True)
        cpu = sum(conn.recv() for conn in self._conns)
        wall = time.perf_counter() - start
        nominal = self.runs * NOMINAL_SECONDS
        return wall / nominal, cpu / (nominal * len(self._conns))

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:
                pass
            conn.close()
        for proc in self._procs:
            proc.join(10)
            if proc.is_alive():
                proc.kill()
                proc.join()
