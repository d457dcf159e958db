"""Per-layer counts and self times for a traced benchmark job.

The wrappers live here, not in qsl2.  ``install()`` replaces each traced
function at every place qsl2 looks it up: on its class, under each alias in
the class (``CycNum.__rmul__``, ``Mat.__mul__``), and in every qsl2 module
that imported it by name (``hopf.nullspace_of_columns``,
``modules.nullspace_of_columns``, ``hyperalgebra.rank_mod_p``,
``cli.hyp_multiply``).  A wrapper keeps a span stack: a span's self time is
its duration minus the time of the traced spans it caused.  Spans are
aggregated in memory per (caller, callee) and written out once, when the job
ends (``Tracer.spans``).  Memo sizes are read from module state after the
run (``Tracer.layer_metrics``).
"""

from __future__ import annotations

import sys
import time


def _qsl2_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qsl2" or name.startswith("qsl2."))]


class Tracer:
    def __init__(self):
        self.stack: list[list] = []        # open spans: [name, child seconds]
        self.stats: dict[str, list] = {}   # name -> [calls, inclusive s, self s]
        self.edges: dict[tuple, list] = {}  # (caller, callee) -> [calls, inclusive s]
        self.sites: dict[str, list[str]] = {}
        self.extra = {"max_denominator": 1, "mono_mul_terms": 0,
                      "collide_lookups": 0, "collide_hits": 0,
                      "rho_hits": 0, "max_columns": 0, "pivots": 0,
                      "matmul_nnz": 0}

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, name, fn, before=None, after=None):
        stack, edges, clock = self.stack, self.edges, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                edge = edges.get((caller, name))
                if edge is None:
                    edges[(caller, name)] = [1, dur]
                else:
                    edge[0] += 1
                    edge[1] += dur
            if after is not None:
                after(args, result)
            return result

        return traced

    def method(self, cls, attr, name, before=None, after=None):
        """Wrap cls.attr and every alias of it in the class."""
        original = cls.__dict__[attr]
        wrapper = self._wrap(name, original, before, after)
        for key, value in list(vars(cls).items()):
            if value is original:
                setattr(cls, key, wrapper)
                self.sites.setdefault(name, []).append(f"{cls.__name__}.{key}")

    def function(self, module, attr, name, before=None, after=None):
        """Wrap module.attr in every qsl2 module that holds it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, before, after)
        for mod in _qsl2_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self.sites.setdefault(name, []).append(f"{mod.__name__}.{key}")

    # -- report ------------------------------------------------------------------

    def _count(self, name):
        stat = self.stats.get(name)
        return stat[0] if stat else 0

    def _self(self, name):
        stat = self.stats.get(name)
        return stat[2] if stat else 0.0

    def _incl(self, name):
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def layer_metrics(self, run_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except trace.overhead_s, as name -> (value, unit)."""
        from qsl2 import algebra, hopf, hyperalgebra, qcomb

        x = self.extra
        lru = [f.cache_info() for f in (qcomb.q_int, qcomb.q_factorial,
                                        qcomb.q_binom, qcomb.gen_q_binom)]
        lru_hits = sum(i.hits for i in lru)
        lru_lookups = lru_hits + sum(i.misses for i in lru)
        engines = list(algebra._ENGINES.values())
        caches = list(hopf._CACHES.values())
        hyp = list(hyperalgebra._HYP_ENGINES.values())
        rho_calls = self._count("hopf.rho_mono")

        def ratio(num, den):
            return num / den if den else 0.0

        self_total = sum(stat[2] for stat in self.stats.values())
        return {
            "cyclotomic.mul_calls": (self._count("cyclotomic.mul"), "count"),
            "cyclotomic.mul_self_s": (self._self("cyclotomic.mul"), "s"),
            "cyclotomic.add_calls": (self._count("cyclotomic.add"), "count"),
            "cyclotomic.inverse_calls": (self._count("cyclotomic.inverse"), "count"),
            "cyclotomic.inverse_self_s": (self._self("cyclotomic.inverse"), "s"),
            "cyclotomic.max_denominator": (
                x["max_denominator"] if self._count("cyclotomic.mul")
                or self._count("cyclotomic.inverse") else 0, "count"),
            "qcomb.lru_entries": (sum(i.currsize for i in lru), "count"),
            "qcomb.lru_hit_ratio": (ratio(lru_hits, lru_lookups), "ratio"),
            "algebra.elem_mul_calls": (self._count("algebra.elem_mul"), "count"),
            "algebra.mono_mul_calls": (self._count("algebra.mono_mul"), "count"),
            "algebra.mono_mul_self_s": (self._self("algebra.mono_mul"), "s"),
            "algebra.mono_mul_terms": (x["mono_mul_terms"], "count"),
            "algebra.collide_calls": (self._count("algebra.collide"), "count"),
            "algebra.collide_self_s": (self._self("algebra.collide"), "s"),
            "algebra.collide_memo": (sum(len(e._collide) for e in engines), "count"),
            "algebra.collide_hit_ratio": (
                ratio(x["collide_hits"], x["collide_lookups"]), "ratio"),
            "algebra.ef_memo": (sum(len(e._ef) for e in engines), "count"),
            "hopf.tensor_mul_calls": (self._count("hopf.tensor_mul"), "count"),
            "hopf.tensor_mul_self_s": (self._self("hopf.tensor_mul"), "s"),
            "hopf.rho_mono_calls": (rho_calls, "count"),
            "hopf.rho_mono_self_s": (self._self("hopf.rho_mono"), "s"),
            "hopf.rho_table": (sum(len(c._rho) for c in caches), "count"),
            "hopf.rho_hit_ratio": (ratio(x["rho_hits"], rho_calls), "ratio"),
            "hopf.delta_table": (sum(len(c._delta) for c in caches), "count"),
            "hopf.antipode_table": (sum(len(c._antipode) for c in caches), "count"),
            "linalg.echelon_calls": (self._count("linalg.echelon"), "count"),
            "linalg.echelon_self_s": (self._self("linalg.echelon"), "s"),
            "linalg.nullspace_self_s": (self._self("linalg.nullspace"), "s"),
            "linalg.max_columns": (x["max_columns"], "count"),
            "linalg.pivots": (x["pivots"], "count"),
            "linalg.rank_mod_p_self_s": (self._self("linalg.rank_mod_p"), "s"),
            "mat.matmul_calls": (self._count("mat.matmul"), "count"),
            "mat.matmul_self_s": (self._self("mat.matmul"), "s"),
            "mat.matmul_nnz": (x["matmul_nnz"], "count"),
            "mat.pow_calls": (self._count("mat.pow"), "count"),
            "modules.monomial_matrix_calls": (
                self._count("modules.monomial_matrix"), "count"),
            "modules.monomial_matrix_s": (self._incl("modules.monomial_matrix"), "s"),
            "hyperalgebra.multiply_calls": (self._count("hyperalgebra.multiply"), "count"),
            "hyperalgebra.mono_mul_calls": (self._count("hyperalgebra.mono_mul"), "count"),
            "hyperalgebra.mono_mul_self_s": (self._self("hyperalgebra.mono_mul"), "s"),
            "hyperalgebra.series_mul_calls": (
                self._count("hyperalgebra.series_mul"), "count"),
            "hyperalgebra.series_mul_self_s": (
                self._self("hyperalgebra.series_mul"), "s"),
            "hyperalgebra.memo_entries": (
                sum(len(e._xy) + len(e._hh) + len(e._move) + len(e._xx)
                    for e in hyp), "count"),
            "trace.covered_share": (ratio(self_total, run_s), "share"),
        }

    def spans(self) -> list[dict]:
        """Aggregated spans: one entry per (caller, callee) pair of traced names."""
        return [{"caller": caller, "name": name, "calls": calls, "inclusive_s": incl}
                for (caller, name), (calls, incl) in
                sorted(self.edges.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))]


def install() -> Tracer:
    """Wrap every traced entry point of the loaded qsl2 modules."""
    from qsl2 import algebra, cyclotomic, hopf, hyperalgebra, linalg, modules

    tr = Tracer()
    x = tr.extra

    def denominators(args, result):
        for c in result.coeffs:
            if c.denominator > x["max_denominator"]:
                x["max_denominator"] = c.denominator

    def mono_terms(args, result):
        x["mono_mul_terms"] += len(result)

    def collide_lookup(args):
        eng, p, m = args
        if p and m:
            x["collide_lookups"] += 1
            if (p, m) in eng._collide:
                x["collide_hits"] += 1

    def rho_lookup(args):
        cache, mono = args
        if mono in cache._rho:
            x["rho_hits"] += 1

    def echelon_sizes(args, result):
        x["max_columns"] = max(x["max_columns"], len(args[0]))
        x["pivots"] += len(result)

    def nnz(args, result):
        x["matmul_nnz"] += len(result.entries)

    cyc = cyclotomic.CycNum
    tr.method(cyc, "__mul__", "cyclotomic.mul", after=denominators)
    tr.method(cyc, "__add__", "cyclotomic.add")
    tr.method(cyc, "__sub__", "cyclotomic.add")
    tr.method(cyc, "inverse", "cyclotomic.inverse", after=denominators)

    tr.method(algebra.AlgElement, "__mul__", "algebra.elem_mul")
    tr.method(algebra._Engine, "mono_mul", "algebra.mono_mul", after=mono_terms)
    tr.method(algebra._Engine, "collide", "algebra.collide", before=collide_lookup)

    tr.method(hopf.Tensor2, "__mul__", "hopf.tensor_mul")
    tr.method(hopf._HopfCache, "rho_mono", "hopf.rho_mono", before=rho_lookup)

    tr.function(linalg, "_echelon", "linalg.echelon", after=echelon_sizes)
    tr.function(linalg, "nullspace_of_columns", "linalg.nullspace")
    tr.function(linalg, "rank_mod_p", "linalg.rank_mod_p")

    tr.method(linalg.Mat, "__matmul__", "mat.matmul", after=nnz)
    tr.method(linalg.Mat, "pow", "mat.pow")
    tr.function(modules, "monomial_matrix", "modules.monomial_matrix")

    tr.function(hyperalgebra, "hyp_multiply", "hyperalgebra.multiply")
    tr.method(hyperalgebra._HypEngine, "mono_mul", "hyperalgebra.mono_mul")
    tr.method(hyperalgebra.TruncatedSeries2, "__mul__", "hyperalgebra.series_mul")
    return tr
