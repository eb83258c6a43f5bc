"""Per-layer tracing of the library from outside it.

:class:`Tracer` wraps public functions of the ``jumploci`` modules by
rebinding every name that refers to them: a ``from .qlinalg import rref``
statement makes a binding of its own in the importing module, so each one
gets the wrapper, and a method is patched on its class under every alias
(``CyclotomicNumber.__rmul__`` is ``__mul__``).  Each call records a span
(name, start, end, parent) in flat arrays; :func:`self_times` turns the
spans into self time, a span's duration minus the time its child spans
cover.  :meth:`Tracer.uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

PACKAGE = "jumploci"

BOTH = ("calls", "self_s")

#: (metric prefix, module, attribute path, reported figures) of every
#: traced function.
TARGETS = (
    ("cli.main", "cli", "main", BOTH),
    ("omega.omega_membership", "omega", "omega_membership", BOTH),
    ("omega.nonopen_witness", "omega", "nonopen_witness", ("calls",)),
    ("tori.sigma_rho_membership", "tori", "sigma_rho_membership", BOTH),
    ("tori.intersect_translated", "tori", "intersect_translated", BOTH),
    ("tori.VarietyDescription.from_json", "tori",
     "VarietyDescription.from_json", ("self_s",)),
    ("qlinalg.rref", "qlinalg", "rref", BOTH),
    ("qlinalg.nullspace", "qlinalg", "nullspace", BOTH),
    ("qlinalg.hnf", "qlinalg", "hnf", BOTH),
    ("qlinalg.snf", "qlinalg", "snf", BOTH),
    ("qlinalg.lattice_coset_solve", "qlinalg", "lattice_coset_solve", BOTH),
    ("tcone.admissible_partitions_maximal", "tcone",
     "admissible_partitions_maximal", BOTH),
    ("tcone.partition_subspace", "tcone", "partition_subspace", ("calls",)),
    ("tcone.tangent_cone_description", "tcone", "tangent_cone_description",
     ("calls",)),
    ("laurent.CyclotomicNumber.mul", "laurent", "CyclotomicNumber.__mul__", BOTH),
    ("laurent.CyclotomicNumber.inverse", "laurent", "CyclotomicNumber.inverse",
     BOTH),
    ("laurent.bareiss_rank", "laurent", "bareiss_rank", BOTH),
    ("laurent.evaluate_at_character", "laurent", "evaluate_at_character", BOTH),
    ("fox.parse_presentation", "fox", "parse_presentation", BOTH),
    ("fox.alexander_matrix", "fox", "alexander_matrix", BOTH),
    ("fox.rank_at_character", "fox", "rank_at_character", BOTH),
    ("fox.contains_translated_torus", "fox", "contains_translated_torus", BOTH),
)

#: Outcome counters: prefix -> predicate on the return value, counted into
#: ``<prefix>.hits``, and a size counted into ``<prefix>.returned``.
_HITS = {"qlinalg.lattice_coset_solve": lambda result: result is not None}
_SIZES = {"tcone.admissible_partitions_maximal": len}


class Tracer:
    """Wraps the TARGETS while installed; spans accumulate until reset."""

    def __init__(self):
        self.names: list[str] = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, int] = {}
        self._stack: list[int] = [-1]
        self._undo: list[tuple] = []

    def reset(self) -> None:
        for arr in (self.name_id, self.start, self.end, self.parent):
            del arr[:]
        self.counters.clear()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE
                                         or name.startswith(PACKAGE + "."))]
        for i, (prefix, module, path, _) in enumerate(TARGETS):
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            if owner is None:
                continue
            raw = owner.__dict__.get(parts[-1]) if isinstance(owner, type) \
                else getattr(owner, parts[-1], None)
            if raw is None:
                continue
            if isinstance(owner, type):
                self._patch_class(owner, raw, i, prefix)
            else:
                wrapper = self._wrap(raw, i, prefix)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is raw:
                            self._set(m, attr, wrapper, raw)

    def _patch_class(self, cls, raw, i, prefix) -> None:
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = self._wrap(func, i, prefix)
        if isinstance(raw, classmethod):
            wrapper = classmethod(wrapper)
        for attr, value in list(vars(cls).items()):
            if value is raw:
                self._set(cls, attr, wrapper, raw)

    def _set(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._undo):
            setattr(owner, attr, old)
        self._undo = []

    def _wrap(self, func, i: int, prefix: str):
        hit = _HITS.get(prefix)
        size = _SIZES.get(prefix)
        stack, clock = self._stack, time.perf_counter
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        counters = self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(i)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if hit is not None and hit(result):
                counters[prefix + ".hits"] = counters.get(prefix + ".hits", 0) + 1
            if size is not None:
                counters[prefix + ".returned"] = (
                    counters.get(prefix + ".returned", 0) + size(result))
            return result

        return traced

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, tuple[int, float]]:
        """prefix -> (calls, self seconds) over the recorded spans."""
        own = self_times(self.start, self.end, self.parent)
        out = {name: [0, 0.0] for name in self.names}
        for k, i in enumerate(self.name_id):
            entry = out[self.names[i]]
            entry[0] += 1
            entry[1] += own[k]
        return {name: (c, s) for name, (c, s) in out.items()}


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the union of its children's intervals.

    Children are clipped to their parent's interval before the union is
    taken, so overlapping or out-of-range children are counted once.
    """
    n = len(start)
    children: dict[int, list[tuple[float, float]]] = {}
    for k in range(n):
        p = parent[k]
        if p >= 0:
            children.setdefault(p, []).append((start[k], end[k]))
    out = []
    for k in range(n):
        covered = 0.0
        lo_bound, hi_bound = start[k], end[k]
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(k, ())):
            lo, hi = max(lo, lo_bound), min(hi, hi_bound)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end[k] - start[k] - covered)
    return out
