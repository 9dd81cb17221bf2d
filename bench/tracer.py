"""Outside-in tracing of cosetkit's public functions.

The tracer wraps each named function and rebinds the wrapper under every
name that holds the original in any loaded ``cosetkit`` module, because the
modules import each other's functions by name (``from .perms import
compose``): patching ``cosetkit.perms.compose`` alone would miss the calls
made from ``coset``, ``atoms``, ``theorems`` and ``cp``.

Every wrapped call pushes onto one span stack, so a traced function called
from another traced function (``canonical_coset_rep`` -> ``compose``) is
subtracted from its caller's self time.  Calls are aggregated into a count
and summed self time per function, never stored one by one: a single
``analyze`` of CP(7,4) makes millions of ``compose`` calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "cosetkit"

TARGETS = {
    "perms": ("enumerate_closure", "subgroup_generated", "left_coset_reps",
              "canonical_coset_rep", "compose", "double_coset",
              "double_coset_index"),
    "coset": ("build", "generation_connectivity", "transpose_spec",
              "dedupe_generators"),
    "digraph": ("vertex_connectivity_transitive", "edge_connectivity",
                "strongly_connected_components", "atoms_bruteforce",
                "e_atoms_bruteforce", "neighbor_set"),
    "atoms": ("kappa_group_theoretic", "subgroup_atom_scan", "verify_atom_theory"),
    "theorems": ("check_decomposition", "check_tower", "check_hierarchical_gen",
                 "verify_hierarchical_cayley", "check_hierarchical_gen_c",
                 "verify_edge_connectivity", "hierarchical_order_search",
                 "sub_instance", "oracle_kappa"),
    "cli": ("main", "load_spec_document", "analyze_instance", "run_check"),
}


class Tracer:
    """Counts calls and self time of the TARGETS functions.

    ``stack[0]`` accumulates the time covered by outermost traced calls, so
    the traced wall time splits exactly into the functions' self times plus
    the untraced remainder, ``outside_s`` in the report.
    """

    def __init__(self):
        self.stack = [0.0]
        self.stats: dict[str, list] = {}     # "mod.fn" -> [calls, self seconds]
        self.missing: list[str] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, fns in TARGETS.items():
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(home, fn_name, None)
                if not inspect.isfunction(original):
                    self.missing.append(name)
                    continue
                if inspect.isgeneratorfunction(original):
                    raise TypeError(f"{name} is a generator; a span would end "
                                    f"before its work")
                stat = self.stats[name] = [0, 0.0]
                wrapper = self._wrap(original, stat)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, fn, stat):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return functools.update_wrapper(traced, fn)

    def report(self, wall: float) -> dict:
        """A snapshot of the counts for a traced phase that took ``wall``
        seconds; ``outside_s`` is the part no traced call covered."""
        return {"stats": {name: list(stat) for name, stat in self.stats.items()},
                "missing": list(self.missing), "outside_s": wall - self.stack[0]}
