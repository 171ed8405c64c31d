"""Command-line interface: verifications, tables and series dumps.

Exit codes: 0 = all checks pass, 1 = a mathematical discrepancy was found,
2 = usage or resource error: a --config file that cannot be read (an
argparse error, as a bad flag is) or an --out path that cannot be written
(an OSError, caught in main).  Reports are canonical JSON with every number
rendered as an exact decimal string, so they are byte-stable across runs
and --jobs values, except for the wall-time field and the jobs value echoed
in params.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import denom, etaq, lattices, mult, octonion
from .etaq import SERIES_NAMES

THETA_CASE = {3: "A2A2", 7: "A6"}

LATTICE_FACTS = {
    # order: (rank, det, level, disc invariants, complement root count)
    3: (4, 9, 3, (3, 3), 12),
    7: (2, 7, 7, (7,), 42),
}


class UsageError(Exception):
    pass


# ----------------------------------------------------------------------
# report plumbing

def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def check(name, ok, range_=None, location=None, expected=None, got=None):
    disc = None
    if not ok:
        disc = {"location": _s(location), "expected": _s(expected),
                "got": _s(got)}
    return {"name": name, "range": _s(range_), "pass": bool(ok),
            "first_discrepancy": disc}


def _s(x):
    """Render any value as an exact string (numbers never as floats)."""
    if x is None:
        return None
    if isinstance(x, (int, Fraction)):
        return str(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(str(v) for v in x) + ")"
    return str(x)


def make_report(command: str, params: dict, checks: list,
                wall_ms: int) -> dict:
    status = "pass" if all(c["pass"] for c in checks) else "fail"
    return {"command": command,
            "params": {k: _s(v) for k, v in sorted(params.items())},
            "status": status, "checks": checks, "wall_ms": wall_ms}


def emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ----------------------------------------------------------------------
# verify targets

def verify_susy(cfg):
    ok, results = etaq.verify_susy_identity(cfg.order, Fraction(cfg.prec))
    checks = [check(name, good, range_=f"q^0..q^{cfg.prec}",
                    location=disc, expected=0,
                    got="nonzero difference" if disc is not None else None)
              for name, good, disc in results]
    return checks


def verify_theta(cfg):
    if cfg.order not in THETA_CASE:
        raise UsageError(f"no closed theta formula for order {cfg.order}")
    case = THETA_CASE[cfg.order]
    tc = mult.TwistClass(cfg.order)
    prec = Fraction(cfg.prec)
    checks = []
    formulas = {}  # norm class -> its closed formula, shared by its cosets
    for lab, shift in sorted(tc.shift_table.items()):
        cls = sum(x * x for x in shift) % 2
        brute = lattices.theta_coset(tc.complement, shift, prec)
        closed = formulas.get(cls)
        if closed is None:
            closed = formulas[cls] = etaq.theta_coset_formula(case, cls, prec)
        d = brute.first_difference(closed)
        checks.append(check(f"theta_coset_{'+'.join(map(str, lab))}",
                            d is None, range_=f"q^0..q^{cfg.prec}",
                            location=d,
                            expected=None if d is None else brute.coeff(d),
                            got=None if d is None else closed.coeff(d)))
    return checks


def verify_spin(cfg):
    u = octonion.build_twist_element(cfg.order)
    rv = octonion.rho_V(u)
    rl = octonion.rho_L(u)
    rr = octonion.rho_R(u)
    expected = octonion.permutation_matrix(
        octonion.REFERENCE_ACTIONS[cfg.order])
    shape = etaq.SHAPES[cfg.order].label()
    order = octonion.matrix_order(rv)
    shape_v = octonion.cycle_shape(rv).label()
    shape_l = octonion.cycle_shape(rl).label()
    checks = [
        check("vector_action_matches_table", rv == expected,
              location="rho_V", expected="reference permutation",
              got="different matrix"),
        check("matrix_order", order == cfg.order,
              expected=cfg.order, got=order),
        check("cycle_shape_V", shape_v == shape, expected=shape, got=shape_v),
        check("cycle_shape_L", shape_l == shape, expected=shape, got=shape_l),
        check("spinor_traces_equal",
              octonion.mat_trace8(rl) == octonion.mat_trace8(rr),
              expected=octonion.mat_trace8(rl), got=octonion.mat_trace8(rr)),
        check("triality_on_basis_pairs", octonion.verify_triality(u),
              range_="64 basis pairs"),
        check("spin_reps_equal_vector_rep", rl == rv and rr == rv,
              location="rho_L,rho_R", expected="equal to rho_V",
              got="different matrices"),
    ]
    return checks


def verify_lattice(cfg):
    tc = mult.TwistClass(cfg.order)
    checks = []
    if cfg.order == 1:
        th = lattices.theta_coset(tc.e8, None, 3)
        checks.append(check("e8_det", tc.e8.det() == 1,
                            expected=1, got=tc.e8.det()))
        checks.append(check("e8_even", tc.e8.is_even()))
        checks.append(check("e8_theta", [th.coeff(0), th.coeff(1),
                                         th.coeff(2)] == [1, 240, 2160],
                            expected="(1,240,2160)",
                            got=(th.coeff(0), th.coeff(1), th.coeff(2))))
        return checks
    rank, det_, level, invs, roots = LATTICE_FACTS[cfg.order]
    f = tc.fixed
    checks.append(check("fixed_rank", f.rank == rank,
                        expected=rank, got=f.rank))
    checks.append(check("fixed_det", f.det() == det_,
                        expected=det_, got=f.det()))
    checks.append(check("fixed_level", f.level() == level,
                        expected=level, got=f.level()))
    checks.append(check("discriminant_group", tc.disc.invariants == invs,
                        expected=invs, got=tc.disc.invariants))
    checks.append(check("fixed_even", f.is_even()))
    nroots = sum(1 for c in lattices.enumerate_coset(tc.complement, None, 2)
                 if tc.complement.norm_of_coords(c) == 2)
    checks.append(check("complement_root_count", nroots == roots,
                        expected=roots, got=nroots))
    checks.append(check("complement_det",
                        tc.complement.det() == f.det(),
                        expected=f.det(), got=tc.complement.det()))
    # level * dual gram is an even integer matrix iff N*L* sits inside L
    dual = f.dual()
    n_dual_in_l = all(
        all((level * x).denominator == 1 for x in row)
        and (level * dual.gram[i][i]).numerator % 2 == 0
        for i, row in enumerate(dual.gram))
    checks.append(check("n_dual_inside_lattice", n_dual_in_l))
    return checks


def verify_mult(cfg):
    tc = mult.TwistClass(cfg.order)
    try:
        table = mult.build_mult_table(tc, cfg.height, cfg.max_norm)
    except (mult.TheoremClosedFormMismatch, mult.NonIntegralMultiplicity,
            mult.NegativeMultiplicity) as exc:
        return [check("mult_theorem1_equals_closed", False,
                      range_=f"height<={cfg.height}", location=str(exc))]
    return [check("mult_theorem1_equals_closed", True,
                  range_=f"height<={cfg.height}, {len(table)} points")]


def verify_denominator(cfg):
    report = denom.verify_identity(cfg.order, cfg.height)
    loc = exp = got = None
    if report.first_discrepancy is not None:
        loc, exp, got = report.first_discrepancy
    checks = [
        check("product_equals_sum", report.first_discrepancy is None,
              range_=f"height<={cfg.height}, {report.factor_count} factors",
              location=loc, expected=exp, got=got),
        check("anisotropic_cancellation", report.anisotropic_ok,
              range_=f"height<={cfg.height}"),
    ]
    return checks


VERIFY_TARGETS = {
    "susy": verify_susy,
    "theta": verify_theta,
    "spin": verify_spin,
    "lattice": verify_lattice,
    "mult": verify_mult,
    "denominator": verify_denominator,
}


# ----------------------------------------------------------------------
# commands

def run_verify(cfg):
    start = time.monotonic()
    checks = VERIFY_TARGETS[cfg.target](cfg)
    wall = int((time.monotonic() - start) * 1000)
    params = {"order": cfg.order, "height": cfg.height, "prec": cfg.prec,
              "jobs": cfg.jobs}
    report = make_report(f"verify {cfg.target}", params, checks, wall)
    if cfg.format == "json" or cfg.out:
        emit(canonical_json(report), cfg.out)
    else:
        for c in checks:
            state = "pass" if c["pass"] else "FAIL"
            print(f"{state}  {c['name']}"
                  + (f"  [{c['range']}]" if c["range"] else ""))
        print(f"status: {report['status']}")
    return 0 if report["status"] == "pass" else 1


def run_table(cfg):
    tc = mult.TwistClass(cfg.order)
    if cfg.kind == "simple_roots":
        table = mult.Table(("k", "mult_even", "mult_odd"),
                           [(k,) + mult.simple_root_mult(tc, k)
                            for k in range(1, cfg.height + 1)],
                           {"order": str(cfg.order)})
    else:
        table = mult.build_mult_table(tc, cfg.height, cfg.max_norm)
    text = {"json": table.to_json, "csv": table.to_csv,
            "text": table.to_text}[cfg.format]()
    emit(text, cfg.out)
    return 0


def run_dump(cfg):
    if cfg.series not in SERIES_NAMES:
        raise UsageError(f"unknown series {cfg.series!r}; "
                         f"choose from {', '.join(SERIES_NAMES)}")
    qs = etaq.named_series(cfg.series, Fraction(cfg.prec))
    pairs = qs.to_pairs()
    if cfg.format == "json":
        text = canonical_json({"series": cfg.series, "prec": str(cfg.prec),
                               "terms": pairs})
    elif cfg.format == "csv":
        text = "exponent,coefficient\n" + \
            "\n".join(f"{e},{c}" for e, c in pairs) + "\n"
    else:
        text = "\n".join(f"{e}\t{c}" for e, c in pairs) + "\n"
    emit(text, cfg.out)
    return 0


COMMANDS = {"verify": run_verify, "table": run_table, "dump": run_dump}


# ----------------------------------------------------------------------
# argument handling

def _read_config(path) -> dict:
    """The file's entries by option dest; a file that cannot be read or
    parsed raises UsageError naming it."""
    import configparser  # only --config reads it: kept out of start-up
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            content = fh.read()
        if not content.lstrip().startswith("["):
            content = "[run]\n" + content
        cp.read_string(content)
        return {k.replace("-", "_"): v
                for section in cp.sections() for k, v in cp.items(section)}
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        raise UsageError(f"config file {path}: {exc}") from exc


class _Store(argparse.Action):
    """argparse's store action that also adds the option's dest to the
    namespace's `given` set, so that an option counts as given however it
    was spelled: abbreviated, or as --flag=value."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


def build_parser(command=None):
    """The top-level parser and its subcommand parsers by name: only
    command's when it names one, else all of them (for the top-level help
    and an unknown command)."""
    p = argparse.ArgumentParser(
        prog="superdenom",
        description="Exact verification of the twisted denominator "
                    "identities of the fake monster superalgebra.")
    # with one subparser the usage still lists every command
    sub = p.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{%s}" % ",".join(COMMANDS))

    def common(sp, command, order=3, formats=("text", "json", "csv")):
        # every option below stores through _Store
        sp.register("action", None, _Store)
        sp.set_defaults(given=frozenset())

        def read_by(dest, text):
            """text plus the targets of command that read dest; hidden when
            none does (the option stays, so config keys stay valid)."""
            who = sorted(" ".join(filter(None, key)) for key, dests in
                         READS.items() if key[0] == command and dest in dests)
            return f"{text} (read by: {', '.join(who)})" if who \
                else argparse.SUPPRESS

        sp.add_argument("--order", type=int, default=order,
                        help=read_by("order", "twist order (1, 3 or 7)"))
        sp.add_argument("--height", type=int, help=read_by(
            "height", "height truncation of lattice expansions"))
        sp.add_argument("--prec", type=int, default=50,
                        help=read_by("prec", "q-expansion precision"))
        sp.add_argument("--max-norm", dest="max_norm", type=int, help=read_by(
            "max_norm", "list only the rows with -alpha^2 <= MAX_NORM"))
        sp.add_argument("--format", choices=formats, default="text")
        sp.add_argument("--jobs", type=int, default=1, help=read_by(
            "jobs", "accepted and echoed in the report; no effect"))
        sp.add_argument("--out")
        sp.add_argument("--config",
                        help="INI-style key=value defaults (flags win)")

    if command in (None, "verify"):
        sv = sub.add_parser("verify", help="run an exact verification")
        sv.add_argument("target", choices=sorted(VERIFY_TARGETS))
        common(sv, "verify", formats=("text", "json"))
    if command in (None, "table"):
        st = sub.add_parser("table", help="emit a multiplicity table")
        st.add_argument("kind", choices=("mult", "simple_roots"))
        common(st, "table")
    if command in (None, "dump"):
        sd = sub.add_parser("dump", help="dump a named q-series")
        sd.add_argument("series", help=f"one of: {', '.join(SERIES_NAMES)}")
        common(sd, "dump", order=1)
    return p, sub.choices


def parse_args(argv) -> argparse.Namespace:
    """Parse argv with one parser tree; with --config, parse it again with
    the file's entries as the subcommand's defaults, so argparse converts
    them and flags win.

    A config fault exits through argparse with status 2, as a bad flag does,
    and so does an option on argv that the subcommand does not read.  The
    tree holds only the subcommand that argv names first, when it names
    one, so a call builds one subparser, not three.
    """
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = build_parser(
        argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.config:
        sp = commands[args.command]
        try:
            config = _read_config(args.config)
        except UsageError as exc:
            sp.error(str(exc))
        options = {a.dest: a for a in sp._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        unknown = sorted(config.keys() - options.keys())
        if unknown:
            sp.error(f"unknown config key: {', '.join(unknown)}")
        sp.set_defaults(**config)
        args = parser.parse_args(argv)
        # argparse converts a string default but never checks its choices
        formats = options["format"].choices
        if args.format not in formats:
            sp.error(f"config format: invalid choice: {args.format!r} "
                     f"(choose from {', '.join(formats)})")
    unread = sorted(args.given - READS[_what(args)]
                    - {"format", "out", "config"})
    if unread:
        commands[args.command].error(
            f"{' '.join(filter(None, _what(args)))} does not read "
            f"{', '.join('--' + d.replace('_', '-') for d in unread)}")
    if args.height is None:
        args.height = 4 if args.order == 1 else 6
    return args


def _what(cfg):
    """(command, target or kind), the key of READS."""
    return (cfg.command, getattr(cfg, "target", getattr(cfg, "kind", None)))


# options each subcommand reads besides --format, --out and --config; any
# other option on argv exits 2
READS = {
    ("verify", "susy"): {"order", "prec"},
    ("verify", "theta"): {"order", "prec"},
    ("verify", "spin"): {"order"},
    ("verify", "lattice"): {"order"},
    ("verify", "mult"): {"order", "height", "max_norm"},
    ("verify", "denominator"): {"order", "height", "jobs"},
    ("table", "mult"): {"order", "height", "max_norm"},
    ("table", "simple_roots"): {"order", "height"},
    ("dump", None): {"prec"},
}


def validate(cfg):
    """Check the values of the options the subcommand reads; a config value
    for any other option is accepted, so one file serves several."""
    command, what = _what(cfg)
    reads = READS[command, what]
    if "order" in reads and cfg.order not in (1, 3, 7):
        raise UsageError(f"unsupported twist order {cfg.order}")
    if "jobs" in reads and cfg.jobs < 1:
        raise UsageError("jobs must be at least 1")
    if "prec" in reads and cfg.prec < 1:
        raise UsageError("precision must be positive")
    # every subcommand that reads the height lists nothing below height 1
    if "height" in reads and cfg.height < 1:
        raise UsageError(f"{command} {what} needs height at least 1")
    if "max_norm" in reads and cfg.max_norm is not None and cfg.max_norm < 0:
        raise UsageError("max-norm must be nonnegative")


def main(argv=None) -> int:
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        validate(cfg)
        return COMMANDS[cfg.command](cfg)
    except (UsageError, OSError, mult.UnsupportedTwistOrder) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
