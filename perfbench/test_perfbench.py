"""Self-checks of the benchmark: trace hygiene, golden gate, vacuous guard.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs one untraced and one traced iteration of every workload (under a
minute on a 2-core machine).
"""

from __future__ import annotations

import json
import sys

import pytest

import run as bench
import tracing

sys.path.insert(0, str(bench.ROOT / "src"))

ALL = tuple(bench.WORKLOADS)
# workloads whose verify calls build a TwistClass (susy builds none)
BUILDS_TWIST_CLASS = ("denominator", "twisted", "cosets")
DENOM = ("denominator", "twisted")

# The workloads on which each wrapper is predicted to do work, and so to
# move wall_s; set-up-only layers fire wherever a TwistClass is built.
PREDICTED = {
    "series.mul": ("susy",),
    "series.inverse": ("susy",),
    "series.pow": ("susy",),
    "etaq.cycle_product": ALL,
    "etaq.eta_expand": ("cosets",),
    "etaq.theta_coset_formula": ("cosets",),
    "etaq.verify_susy_identity": ("susy",),
    "lattices.in_lattice": BUILDS_TWIST_CLASS,
    "lattices.positive_cone_enum": DENOM,
    "lattices.primitive_isotropic_enum": DENOM,
    "lattices.enumerate_coset": BUILDS_TWIST_CLASS,
    "lattices.theta_coset": ("cosets",),
    "intlinalg.mat_vec": BUILDS_TWIST_CLASS,
    "intlinalg.hnf": BUILDS_TWIST_CLASS,
    "intlinalg.mat_inv": BUILDS_TWIST_CLASS,
    "octonion.build_twist_element": BUILDS_TWIST_CLASS,
    "octonion.cycle_shape": BUILDS_TWIST_CLASS,
    "mult.TwistClass": BUILDS_TWIST_CLASS,
    "mult.series_regrow": ("twisted",),
    # a dimension cache regrows only at alpha/N of norm <= -7 (height >= 12
    # for order 3), which no workload reaches
    "mult.dim_regrow": (),
    "mult.c_coeff": DENOM,
    "mult.mult_closed": ("denominator", "cosets"),
    "mult.mult_theorem1": ("cosets",),
    "mult.build_mult_table": ("cosets",),
    "denom.factor_list": DENOM,
    "denom.product_side": DENOM,
    "denom.expand_factor": DENOM,
    "denom.mul_factor": DENOM,
    "denom.mul_series": DENOM,
    "denom.sum_side": DENOM,
    "denom.compare": DENOM,
    "cli.main": ALL,
}


@pytest.fixture(scope="module")
def golden():
    return bench.load_golden()


@pytest.fixture(scope="module")
def iterations(golden):
    """workload -> (untraced iteration, traced iteration)."""
    return {wl: tuple(bench.run_iteration(spec["calls"], golden, traced,
                                          "selfcheck")
                      for traced in (False, True))
            for wl, spec in bench.WORKLOADS.items()}


def _layers(it):
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    return bench.layer_metrics(it, [m["name"] for m in spec["per_layer"]])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    rows = tracing.patch_table()
    spans = {name for name, *_ in rows}
    counters = {c[0] for _, _, c, _ in rows if c is not None}
    assert spans == set(PREDICTED)
    for m in spec["per_layer"]:
        stem, _, suffix = m["name"].rpartition(".")
        assert (m["name"] in counters | {"cli.report_bytes",
                                         "trace.overhead_ratio"}
                or (suffix in ("s", "calls", "count") and stem in spans)), \
            m["name"]


def test_every_call_matches_its_golden_report(iterations):
    for wl, its in iterations.items():
        for it in its:
            assert it["failed"] == 0, wl
            assert it["attempted"] == len(bench.WORKLOADS[wl]["calls"])


def test_traced_reports_are_byte_identical_to_untraced(iterations):
    for wl, (plain, traced) in iterations.items():
        assert traced["reports"] == plain["reports"], wl


def test_every_wrapper_fires_where_predicted(iterations):
    for name, workloads in PREDICTED.items():
        for wl in workloads:
            calls = sum(tr["calls"].get(name, 0)
                        for tr in iterations[wl][1]["traces"])
            assert calls > 0, f"{name} never ran on {wl}"


def test_trace_reproduces_known_facts(iterations):
    """Two factor lists per verify denominator, a chunk merge exactly when
    --jobs > 1, and no lattice or denom code at all under verify susy."""
    for wl, (_, traced) in iterations.items():
        calls = bench.WORKLOADS[wl]["calls"]
        assert len(traced["traces"]) == len(calls)
        for argv, tr in zip(calls, traced["traces"]):
            n = tr["calls"]
            denominator = argv.startswith("verify denominator")
            assert n.get("denom.factor_list", 0) == 2 * denominator, argv
            assert (n.get("denom.mul_series", 0) > 0) == ("--jobs 2" in argv)
            if argv.startswith("verify susy"):
                assert not [k for k in n
                            if k.startswith(("lattices.", "denom."))]
        layers = _layers(traced)
        assert layers["cli.report_bytes"] == sum(
            len(r) for r in traced["reports"].values())


def test_spans_nest_inside_their_parents(iterations):
    for _, traced in iterations.values():
        for tr in traced["traces"]:
            spans = tr["spans"]
            assert spans and spans[0]["name"] == "cli.main"
            for s in spans:
                assert s["start"] <= s["end"]
                if s["parent"] is not None:
                    p = spans[s["parent"]]
                    assert p["start"] <= s["start"] and s["end"] <= p["end"]


def test_perturbed_golden_byte_is_a_failure(golden):
    calls = bench.WORKLOADS["susy"]["calls"]
    bad = dict(golden)
    text = bad[calls[0]]
    i = text.index('"pass"')
    bad[calls[0]] = text[:i + 1] + "P" + text[i + 2:]
    it = bench.run_iteration(calls, bad, False, "selfcheck")
    assert (it["attempted"], it["failed"]) == (2, 1)


@pytest.mark.parametrize("checks", [
    [],
    [{"first_discrepancy": None, "name": "product_equals_sum", "pass": True,
      "range": "height<=0, 0 factors"}],
    [{"first_discrepancy": None, "name": "mult_theorem1_equals_closed",
      "pass": True, "range": "height<=0, 0 points"}],
])
def test_vacuous_report_is_a_failure(checks):
    report = json.dumps({"checks": checks, "command": "verify denominator",
                         "params": {}, "status": "pass"},
                        sort_keys=True, separators=(",", ":"))
    result = {"rc": 0, "report": report[:-1] + ',"wall_ms":5}\n'}
    assert bench.call_failure(result, report + "\n").startswith("vacuous")
