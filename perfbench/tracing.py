"""In-memory span tracer for the benchmark's traced mode.

The tracer wraps public functions of each superdenom layer (module) from the
outside: every function is patched where it is looked up, so a name imported
with ``from .x import f`` is patched in the importing module as well, and
methods are patched on their class.  No code of the package itself changes.

Each wrapped call records its self time: its duration minus the time spent
in wrapped calls below it.  Ordinary calls become spans (name, start, end,
parent span, run id).  Calls in ``AGGREGATED`` happen tens of thousands of
times per run, so they get no span of their own; they are summed into a
count and a self time on the nearest enclosing span instead.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# high-frequency leaf calls: counted per parent span, never a span each
AGGREGATED = frozenset({
    "lattices.in_lattice", "intlinalg.mat_vec", "mult.c_coeff",
    "mult.mult_closed", "mult.mult_theorem1", "denom.mul_factor",
    "denom.expand_factor", "series.mul", "series.pow",
})


class Tracer:
    """Spans, per-name call counts, self times and counters of one call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []   # [name, start, end, parent, leaves]
        self.stack: list[list] = []   # [name, child seconds, span index]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, count=None, skip_under: str | None = None):
        """A traced stand-in for fn.

        count is an optional (counter name, function of the result) pair.
        A call made directly from a span named skip_under is passed through
        untraced, so its time stays with that caller.
        """
        aggregate = name in AGGREGATED
        clock = time.perf_counter
        stack, spans = self.stack, self.spans
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip_under is not None and stack and stack[-1][0] == skip_under:
                return fn(*args, **kwargs)
            parent = stack[-1][2] if stack else None
            if aggregate:
                index = parent
            else:
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent, None])
            frame = [name, 0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - start
                own = total - frame[1]
                if stack:
                    stack[-1][1] += total
                calls[name] += 1
                self_s[name] += own
                if not aggregate:
                    spans[index][1], spans[index][2] = start, end
                elif parent is not None:
                    leaves = spans[parent][4]
                    if leaves is None:
                        leaves = spans[parent][4] = {}
                    leaf = leaves.setdefault(name, [0, 0.0])
                    leaf[0] += 1
                    leaf[1] += own
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "spans": [{"run": self.run_id, "name": n, "start": s, "end": e,
                       "parent": p, "leaves": leaves or {}}
                      for n, s, e, p, leaves in self.spans],
        }


def _theta_points(qs) -> int:
    return int(sum(qs.terms.values()))


def patch_table():
    """(span name, [(owner, attribute), ...], counter, skip_under) rows.

    Every row lists all the places its function is looked up from.
    arith gets no row: its helpers are leaf calls cheaper than a wrapper,
    so their time stays in their callers' self time.
    """
    from superdenom import (cli, denom, etaq, intlinalg, lattices, mult,
                            octonion, series)
    qs, lor = series.QSeries, lattices.LorentzianLattice
    tc, acc = mult.TwistClass, denom.LatticeSeries
    return [
        ("series.mul", [(qs, "__mul__"), (qs, "__rmul__")], None, None),
        ("series.inverse", [(qs, "inverse")], None, None),
        ("series.pow", [(qs, "__pow__")], None, None),
        ("etaq.cycle_product", [(etaq, "cycle_product")], None, None),
        ("etaq.eta_expand", [(etaq, "eta_expand")], None, None),
        ("etaq.theta_coset_formula", [(etaq, "theta_coset_formula")],
         None, None),
        ("etaq.verify_susy_identity", [(etaq, "verify_susy_identity")],
         None, None),
        ("lattices.in_lattice", [(lor, "in_lattice")], None, None),
        ("lattices.positive_cone_enum", [(lor, "positive_cone_enum")],
         ("lattices.positive_cone_enum.points", len), None),
        ("lattices.primitive_isotropic_enum",
         [(lor, "primitive_isotropic_enum")],
         ("lattices.primitive_isotropic_enum.points", len), None),
        ("lattices.enumerate_coset", [(lattices, "enumerate_coset")],
         ("lattices.enumerate_coset.points", len), None),
        ("lattices.theta_coset",
         [(lattices, "theta_coset"), (mult, "theta_coset")],
         ("lattices.theta_coset.points", _theta_points), None),
        ("intlinalg.mat_vec",
         [(lattices, "mat_vec"), (intlinalg, "mat_vec")], None, None),
        ("intlinalg.hnf", [(lattices, "hnf"), (intlinalg, "hnf")],
         None, None),
        ("intlinalg.mat_inv", [(lattices, "mat_inv"), (intlinalg, "mat_inv")],
         None, None),
        ("octonion.build_twist_element",
         [(mult, "build_twist_element"), (octonion, "build_twist_element")],
         None, None),
        ("octonion.cycle_shape",
         [(mult, "cycle_shape"), (octonion, "cycle_shape")], None, None),
        ("mult.TwistClass", [(tc, "__init__")], None, None),
        # the builds made by __init__ itself are construction, not regrowth
        ("mult.series_regrow", [(tc, "_build_series_caches")], None,
         "mult.TwistClass"),
        ("mult.dim_regrow", [(tc, "_build_dim_caches")], None,
         "mult.TwistClass"),
        ("mult.c_coeff", [(tc, "c_coeff")], None, None),
        ("mult.mult_closed", [(mult, "mult_closed"), (denom, "mult_closed")],
         None, None),
        ("mult.mult_theorem1", [(mult, "mult_theorem1")], None, None),
        ("mult.build_mult_table", [(mult, "build_mult_table")],
         ("mult.build_mult_table.rows", len), None),
        ("denom.factor_list", [(denom, "_factor_list")],
         ("denom.factor_list.factors", len), None),
        ("denom.product_side", [(denom, "product_side")], None, None),
        ("denom.expand_factor", [(denom, "expand_factor")], None, None),
        ("denom.mul_factor", [(acc, "mul_factor")], None, None),
        ("denom.mul_series", [(acc, "mul_series")], None, None),
        ("denom.sum_side", [(denom, "sum_side")], None, None),
        # verify_identity's self time is the final comparison and the
        # anisotropic check
        ("denom.compare", [(denom, "verify_identity")],
         ("denom.product_terms", lambda r: r.product_terms), None),
        ("cli.main", [(cli, "main")], None, None),
    ]


def install(tracer: Tracer) -> None:
    """Patch every row of patch_table() with a wrapper bound to tracer."""
    for name, sites, count, skip_under in patch_table():
        for owner, attr in sites:
            fn = getattr(owner, attr)
            setattr(owner, attr, tracer.wrap(name, fn, count, skip_under))
