"""Host record and host-speed probe for every benchmark result.

The reference host is a shared 2-vCPU VM whose speed drifts by tens of
percent within minutes: other tenants slow both vCPUs together, and
the program with them.  Each timing the benchmark reports is therefore
paired with timings of a fixed probe taken between the operations of
the same run, and scaled towards the probe's speed on a quiet
reference host:

    scaled = measured * (REFERENCE_PROBE_MS / mean probe_ms) ** SCALING_EXPONENT

The program slows less than the probe: over same-commit runs, log wall
time moved 0.5 to 1 times as far as log probe time, depending on the
workload and the host's state.  The exponent 3/4 gave the smallest
worst-case run-to-run spread over three ten-run sets of every workload
(see README.md, "Host speed" and "Bounds").

The probe is a small pure-Python ROBDD (unique table, computed table,
recursive apply) building an 8x8-bit multiplier: the same kind of work
as the program (dict lookups on tuple keys, many small allocations),
fixed forever in this file so that scaled times compare across
commits.  It runs in a child process of its own (``python3 host.py``
answers one probe time per input line), so neither the program's heap
nor its settings reach the probe, and the probe's memory does not
count in the program's peak RSS.
"""

from __future__ import annotations

import gc
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: Probe time on the reference host (2-vCPU VM, Intel Xeon at 2.1 GHz,
#: Python 3.11) when quiet.  A scaled time is in seconds of that host.
REFERENCE_PROBE_MS = 130.0
#: How much of the probe's slowdown a scaled time takes out (see the
#: module docstring).  Fixed, like the probe, so scaled times compare
#: across commits.
SCALING_EXPONENT = 0.75
#: Operand width of the probe's multiplier; fixed forever.
PROBE_BITS = 8
_TERMINAL = 1 << 30


def _mk(nodes: list, unique: dict, v: int, lo: int, hi: int) -> int:
    if lo == hi:
        return lo
    key = (v, lo, hi)
    n = unique.get(key)
    if n is None:
        n = len(nodes)
        nodes.append(key)
        unique[key] = n
    return n


def _apply(nodes: list, unique: dict, cache: dict, op: int, f: int, g: int) -> int:
    """``op`` 0/1/2 = and/or/xor of nodes ``f`` and ``g`` (0 and 1 are the terminals)."""
    if f <= 1 and g <= 1:
        return (f & g, f | g, f ^ g)[op]
    key = (op, f, g)
    r = cache.get(key)
    if r is not None:
        return r
    vf = nodes[f][0] if f > 1 else _TERMINAL
    vg = nodes[g][0] if g > 1 else _TERMINAL
    v = min(vf, vg)
    f0, f1 = (nodes[f][1], nodes[f][2]) if vf == v else (f, f)
    g0, g1 = (nodes[g][1], nodes[g][2]) if vg == v else (g, g)
    r = _mk(
        nodes, unique, v,
        _apply(nodes, unique, cache, op, f0, g0),
        _apply(nodes, unique, cache, op, f1, g1),
    )
    cache[key] = r
    return r


def _multiplier(bits: int) -> int:
    """Build every product bit of two ``bits``-bit operands; the node count."""
    nodes: list = [(_TERMINAL, 0, 0), (_TERMINAL, 1, 1)]
    unique: dict = {}
    cache: dict = {}

    def apply(op: int, f: int, g: int) -> int:
        return _apply(nodes, unique, cache, op, f, g)

    a = [_mk(nodes, unique, i, 0, 1) for i in range(bits)]
    b = [_mk(nodes, unique, bits + i, 0, 1) for i in range(bits)]
    acc = [0] * (2 * bits)
    for j in range(bits):
        carry = 0
        for i in range(bits):
            p = apply(0, a[i], b[j])
            s = acc[i + j]
            t = apply(2, s, p)
            acc[i + j] = apply(2, t, carry)
            carry = apply(1, apply(0, s, p), apply(0, carry, t))
        k = bits + j
        while carry and k < 2 * bits:
            s = acc[k]
            acc[k] = apply(2, s, carry)
            carry = apply(0, s, carry)
            k += 1
    return len(nodes)


def _probe_here_ms() -> float:
    """One run of the probe in this process, in milliseconds."""
    start = time.perf_counter()
    _multiplier(PROBE_BITS)
    return (time.perf_counter() - start) * 1000.0


class SpeedProbe:
    """The probe process: one probe per call of ``ms``, the caller waiting."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ms(self) -> float:
        """One probe time, in milliseconds."""
        self._proc.stdin.write("probe\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed probe process ended (exit {self._proc.poll()})")
        return float(line)

    def close(self) -> None:
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait(timeout=30)
        self._proc.stdout.close()

    def __enter__(self) -> SpeedProbe:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def speed_factor(probes_ms: list[float]) -> float:
    """How much slower than the quiet reference host the probes ran."""
    return statistics.fmean(probes_ms) / REFERENCE_PROBE_MS


def scaled(value: float, probes_ms: list[float]) -> float:
    """``value``, measured beside ``probes_ms``, at the reference host's speed."""
    return value / speed_factor(probes_ms) ** SCALING_EXPONENT


def host_record() -> dict:
    """Identity and load of the machine running the benchmark."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


def main() -> int:
    """The probe process: answer every input line with one probe time."""
    # The probe makes no reference cycles; without the cyclic collector
    # every probe does exactly the same work.
    gc.disable()
    for _ in sys.stdin:
        print(repr(_probe_here_ms()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
