"""Cost-aware scheduling: per-row wall-time estimates.

The sweep rows differ in cost by two orders of magnitude (the 2-digit
decimal multiplier row alone dominates the quick Table 5 sweep), so a
process pool that schedules rows in table order ends up waiting on one
straggler.  The executor instead schedules *longest-first*, using this
model's estimates.

Estimates come from three places, weakest first:

1. per-kind defaults (a Table 6 word list costs more than a Table 4
   row),
2. ``BENCH_*.json`` records of prior runs (``wall_s`` of the
   ``table4:<name>``-style records emitted by the benchmarks),
3. the model's own persisted observation file, updated after every
   sweep with an exponential moving average.

An unknown row simply falls back to its kind default; the model is an
optimization, never a correctness dependency.
"""

from __future__ import annotations

import contextlib
import json
import os
import warnings
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from repro.bdd import stats
from repro.parallel.tasks import RowTask

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None


@contextlib.contextmanager
def _file_lock(target: Path) -> Iterator[None]:
    """An exclusive advisory lock on ``<target>.lock`` (POSIX flock).

    The query daemon and a concurrently running sweep both persist to
    the same cost file; the lock serializes the read-merge-write in
    :meth:`CostModel.save` so neither clobbers the other's estimates.
    Degrades to a no-op where ``fcntl`` is unavailable — the write
    itself stays atomic either way.
    """
    if fcntl is None:
        yield
        return
    lock_path = target.with_name(target.name + ".lock")
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    with open(lock_path, "w") as handle:
        fcntl.flock(handle, fcntl.LOCK_EX)
        try:
            yield
        finally:
            fcntl.flock(handle, fcntl.LOCK_UN)

#: Fallback estimates (seconds) by task kind.  ``query`` rows are the
#: service's interactive queries — biased low so an unknown query is
#: admitted ahead of unknown batch rows rather than behind them.
KIND_DEFAULTS = {"table4": 1.0, "table5": 2.0, "table6": 4.0, "query": 0.5}

#: Persisted cost file format marker.
COST_FORMAT = "repro-cost-model"
COST_VERSION = 1


class CostModel:
    """Per-row wall-time estimates with longest-first scheduling."""

    def __init__(
        self,
        estimates: dict[str, float] | None = None,
        *,
        path: str | Path | None = None,
        alpha: float = 0.5,
    ) -> None:
        self.estimates: dict[str, float] = dict(estimates or {})
        self.path = Path(path) if path is not None else None
        self.alpha = alpha
        #: Keys this model has *observed* itself (not merely loaded or
        #: seeded).  On save these win over what is on disk; everything
        #: else merges in from the file, so a service daemon and a
        #: sweep sharing one cost file exchange observations instead of
        #: clobbering each other.
        self._touched: set[str] = set()

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @classmethod
    def load(
        cls,
        path: str | Path | None = None,
        *,
        seed_bench: Iterable[str | Path] = (),
        alpha: float = 0.5,
    ) -> "CostModel":
        """Load persisted estimates, seeding gaps from BENCH_*.json files.

        Own observations (the ``path`` file) take precedence over the
        benchmark-record seeds.  A *missing* observation file is normal
        (first run) and silent; a *corrupt* one is evidence of a torn
        write or concurrent clobber — it is moved aside to
        ``<path>.bad`` and reported with a warning rather than silently
        starting the model over (estimates are cheap to relearn, but a
        quiet reset would mask the underlying bug).  Seed BENCH files
        stay best-effort silent either way.
        """
        estimates: dict[str, float] = {}
        for bench in seed_bench:
            estimates.update(_bench_walls(bench))
        if path is not None:
            p = Path(path)
            if p.exists():
                data: dict | None
                try:
                    data = json.loads(p.read_text())
                except (OSError, json.JSONDecodeError):
                    data = None
                if not isinstance(data, dict) or data.get("format") != COST_FORMAT:
                    bad = p.with_name(p.name + ".bad")
                    try:
                        os.replace(p, bad)
                        where = f"backed up to {bad}"
                    except OSError:
                        where = "could not be backed up"
                    warnings.warn(
                        f"cost file {p} is corrupt or not a {COST_FORMAT} "
                        f"document ({where}); starting with fresh estimates",
                        stacklevel=2,
                    )
                else:
                    for key, value in data.get("estimates", {}).items():
                        try:
                            estimates[key] = float(value)
                        except (TypeError, ValueError):
                            continue
        return cls(estimates, path=path, alpha=alpha)

    def save(
        self, path: str | Path | None = None, *, merge: bool = True
    ) -> Path | None:
        """Persist the estimates; no-op when no path is configured.

        The write is atomic (temp file + ``os.replace`` in the target
        directory), so a sweep killed mid-save — exactly the regime the
        fault-tolerant executor operates in — can never leave a torn
        half-JSON behind for the next :meth:`load` to trip over.

        With ``merge=True`` (the default) the save is a locked
        read-merge-write against the current file contents: keys this
        model observed itself (:meth:`observe`) win, every other
        on-disk key is preserved — the contract that lets the service
        daemon and the sweep executor share one cost file without
        losing each other's walls.  The merged view is folded back into
        ``self.estimates`` too, so a long-lived daemon learns from
        concurrent sweeps at each save.
        """
        target = Path(path) if path is not None else self.path
        if target is None:
            return None
        target.parent.mkdir(parents=True, exist_ok=True)
        with _file_lock(target):
            if merge and target.exists():
                for key, value in _read_estimates(target).items():
                    if key not in self._touched:
                        self.estimates[key] = value
            payload = {
                "format": COST_FORMAT,
                "version": COST_VERSION,
                "estimates": {
                    k: round(v, 6) for k, v in sorted(self.estimates.items())
                },
            }
            stats.atomic_write(target, json.dumps(payload, indent=2) + "\n")
        return target

    # ------------------------------------------------------------------
    # Estimation and scheduling
    # ------------------------------------------------------------------

    def estimate(self, key: str) -> float:
        """Expected wall seconds for a row key (kind default fallback)."""
        value = self.estimates.get(key)
        if value is not None:
            return value
        kind = key.split(":", 1)[0]
        return KIND_DEFAULTS.get(kind, 1.0)

    def seed(self, key: str, estimate: float) -> None:
        """Set an initial estimate unless one is already known.

        Observations (EWMA) always win over seeds; the service seeds
        unseen query keys from a structural size heuristic so its
        shortest-job-first admission order is sensible before the first
        observation lands.
        """
        self.estimates.setdefault(key, float(estimate))

    def observe(self, key: str, wall_s: float) -> None:
        """Fold a measured wall time into the estimate (EWMA)."""
        old = self.estimates.get(key)
        if old is None:
            self.estimates[key] = wall_s
        else:
            self.estimates[key] = self.alpha * wall_s + (1 - self.alpha) * old
        self._touched.add(key)

    def schedule(self, tasks: Sequence[RowTask]) -> list[int]:
        """Longest-first execution order, as indices into ``tasks``.

        The sort is stable on the original index, so two rows with
        equal estimates keep their submission order — scheduling is
        deterministic for a fixed model state.
        """
        return sorted(
            range(len(tasks)), key=lambda i: (-self.estimate(tasks[i].key), i)
        )


def _read_estimates(path: Path) -> dict[str, float]:
    """Best-effort estimates from a cost file (for merge-on-save).

    Unlike :meth:`CostModel.load`, a corrupt file here is simply
    ignored — the caller is about to overwrite it with a fresh valid
    document anyway, which *is* the repair.
    """
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    if not isinstance(data, dict) or data.get("format") != COST_FORMAT:
        return {}
    out: dict[str, float] = {}
    for key, value in data.get("estimates", {}).items():
        try:
            out[key] = float(value)
        except (TypeError, ValueError):
            continue
    return out


def _bench_walls(path: str | Path) -> dict[str, float]:
    """``record name -> wall_s`` from one BENCH_*.json file."""
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        return {}
    walls: dict[str, float] = {}
    for key, rec in data.get("records", {}).items():
        wall = rec.get("wall_s") if isinstance(rec, dict) else None
        if isinstance(wall, (int, float)) and wall > 0:
            walls[key] = float(wall)
    return walls
