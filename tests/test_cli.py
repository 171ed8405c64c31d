"""Command-line interface: exit codes, report shape, config handling."""

import argparse
import json
import re

import pytest

from superdenom.cli import READS, build_parser, canonical_json, main
from superdenom.etaq import named_series


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "json")
    return code, json.loads(out), err


class TestExitCodes:
    def test_passing_verification_is_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "susy", "--order", "3",
                           "--prec", "30")
        assert code == 0
        assert "status: pass" in out

    def test_mathematical_failure_is_one(self, capsys):
        # the order-7 spinor actions genuinely differ from the vector action
        code, out, _ = run(capsys, "verify", "spin", "--order", "7")
        assert code == 1
        assert "FAIL  spin_reps_equal_vector_rep" in out
        assert "status: fail" in out

    def test_usage_error_is_two(self, capsys):
        code, _, err = run(capsys, "verify", "susy", "--order", "5")
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, "dump", "no_such_series")
        assert code == 2 and "unknown series" in err
        code, _, _ = run(capsys, "verify", "nonexistent_target")
        assert code == 2

    def test_verify_has_no_csv(self, capsys):
        code, out, err = run(capsys, "verify", "lattice", "--order", "3",
                             "--format", "csv")
        assert code == 2 and out == "" and "invalid choice" in err

    def test_spin_order3_all_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "spin", "--order", "3")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("argv", [
        ("verify", "denominator", "--height", "0"),
        ("verify", "mult", "--height", "0"),
        ("table", "mult", "--height", "0"),
        ("table", "simple_roots", "--height", "0"),
        ("table", "mult", "--max-norm", "-5"),
        ("verify", "denominator", "--jobs", "0"),
    ], ids=["verify-denominator", "verify-mult", "table-mult",
            "table-simple_roots", "max-norm", "jobs"])
    def test_vacuous_run_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and "error:" in err


class TestUnreadFlags:
    """An option on argv that the subcommand never reads exits 2 with the
    usage message; --format, --out and --config are read everywhere."""

    @pytest.mark.parametrize("argv", [
        "dump c3 --height 99 --jobs 9",
        "dump c3 --prec 3 --ord 7",
        "verify susy --height 99 --jobs 5",
        "verify susy --prec 5 --max-norm 3",
        "verify theta --order 7 --jobs=2",
        "verify spin --order 3 --prec 2",
        "verify lattice --order 7 --height 4",
        "verify mult --order 7 --height 2 --jobs 2",
        "verify denominator --order 7 --height 2 --max-norm 4",
        "table simple_roots --order 7 --height 3 --max-norm 3",
        "table mult --order 7 --height 2 --prec 9",
    ])
    def test_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (2, "")
        assert "usage:" in err and "does not read" in err

    @pytest.mark.parametrize("argv,code", [
        ("verify susy --ord 7 --prec=5", 0),
        ("verify susy --prec 5 --hei=3", 2),
        ("verify susy --prec 5 --config CFG", 0),
    ])
    def test_parser_built_once(self, monkeypatch, tmp_path, argv, code):
        """One argparse tree per parse_args call, also when it rejects an
        abbreviated --flag=value option or reads a config file."""
        import superdenom.cli as cli
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("order = 7\njobs = 2\n")
        calls = []
        orig = cli.build_parser

        def counted():
            calls.append(1)
            return orig()
        monkeypatch.setattr(cli, "build_parser", counted)
        argv = argv.replace("CFG", str(cfgfile)).split()
        if code:
            with pytest.raises(SystemExit) as exc:
                cli.parse_args(argv)
            assert exc.value.code == code
        else:
            assert cli.parse_args(argv).order == 7
        assert len(calls) == 1

    def test_params_keep_unread_defaults(self, capsys):
        code, report, _ = run_json(capsys, "verify", "susy", "--prec", "5")
        assert code == 0
        assert report["params"] == {"height": "6", "jobs": "1",
                                    "order": "3", "prec": "5"}

    def test_config_may_set_unread_keys(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("height = 99\njobs = 5\nmax-norm = 3\n")
        code, report, _ = run_json(capsys, "verify", "susy", "--prec", "5",
                                   "--config", str(cfgfile))
        assert code == 0
        assert report["params"]["height"] == "99"


class TestReports:
    def test_json_report_shape(self, capsys):
        code, report, _ = run_json(capsys, "verify", "lattice",
                                   "--order", "7")
        assert code == 0
        assert report["status"] == "pass"
        assert report["command"] == "verify lattice"
        assert report["params"]["order"] == "7"
        names = [c["name"] for c in report["checks"]]
        assert "fixed_det" in names and "complement_root_count" in names
        assert all(c["pass"] for c in report["checks"])

    def test_report_is_canonical(self, capsys):
        _, out, _ = run(capsys, "verify", "lattice", "--order", "3",
                        "--format", "json")
        report = json.loads(out)
        assert out.rstrip("\n") == canonical_json(report)

    def test_jobs_do_not_change_report(self, capsys):
        outs = []
        for jobs in ("1", "2", "8"):
            code, report, _ = run_json(capsys, "verify", "denominator",
                                       "--order", "7", "--height", "4",
                                       "--jobs", jobs)
            assert code == 0
            report["wall_ms"] = 0
            report["params"]["jobs"] = "0"
            outs.append(canonical_json(report))
        assert outs[0] == outs[1] == outs[2]

    def test_perturbed_denominator_report_is_pinned(self, capsys,
                                                    monkeypatch):
        """A failing report, byte for byte apart from wall_ms, as the
        tuple-keyed accumulator wrote it: location, expected and got of the
        first discrepancy, and the anisotropic check."""
        import superdenom.denom as dn
        orig = dn.class_multiplicity

        def bad(tc, q, m, n, divisible):
            c1, c2 = orig(tc, q, m, n, divisible)
            if 2 * m * n - q == 2:  # roots of norm -2
                return (c1 + 1, c2)
            return (c1, c2)
        monkeypatch.setattr(dn, "class_multiplicity", bad)
        code, out, _ = run(capsys, "verify", "denominator", "--order", "1",
                           "--height", "2", "--format", "json")
        assert code == 1
        assert re.sub(r',"wall_ms":[0-9]+', "", out) == (
            '{"checks":[{"first_discrepancy":{"expected":"0","got":"-2",'
            '"location":"((0, 0, 0, 0, 0, 0, 0, 0),1,1)"},'
            '"name":"product_equals_sum","pass":false,'
            '"range":"height<=2, 245 factors"},'
            '{"first_discrepancy":{"expected":null,"got":null,'
            '"location":null},"name":"anisotropic_cancellation",'
            '"pass":false,"range":"height<=2"}],'
            '"command":"verify denominator",'
            '"params":{"height":"2","jobs":"1","order":"1","prec":"50"},'
            '"status":"fail"}\n')


class TestDump:
    def test_text_dump_values(self, capsys):
        code, out, _ = run(capsys, "dump", "fake_c", "--prec", "4")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[0] == ["0", "8"]
        assert ["1", "128"] in rows

    def test_json_dump(self, capsys):
        code, payload, _ = run_json(capsys, "dump", "c3", "--prec", "3")
        assert code == 0
        assert payload["series"] == "c3"
        terms = {e: c for e, c in payload["terms"]}
        assert terms["0"] == "2" and terms["1"] == "8"

    def test_dump_a1(self, capsys):
        code, payload, _ = run_json(capsys, "dump", "a1", "--prec", "3")
        assert code == 0
        assert payload["terms"] == [list(p) for p in
                                    named_series("a1", 3).to_pairs()]

    def test_csv_dump_header(self, capsys):
        code, out, _ = run(capsys, "dump", "a7", "--prec", "3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "exponent,coefficient"


class TestTables:
    def test_simple_roots_rows(self, capsys):
        code, out, _ = run(capsys, "table", "simple_roots", "--order", "3",
                           "--height", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k\tmult_even\tmult_odd"
        assert lines[1] == "1\t2\t2"
        assert lines[3] == "3\t4\t4"
        assert lines[6] == "6\t4\t4"

    def test_mult_table_csv(self, capsys):
        code, out, _ = run(capsys, "table", "mult", "--order", "7",
                           "--height", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("coset,m,n,norm")
        assert len(lines) > 1


class TestConfigAndOut:
    def test_config_file_defaults(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("order = 7\nprec = 3\nformat = json\n")
        code, out, _ = run(capsys, "dump", "c7", "--config", str(cfgfile))
        payload = json.loads(out)
        assert code == 0
        assert payload["prec"] == "3"

    def test_flags_override_config(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text("[run]\norder = 3\n")
        code, report, _ = run_json(capsys, "verify", "lattice",
                                   "--config", str(cfgfile),
                                   "--order", "7")
        assert code == 0
        assert report["params"]["order"] == "7"

    def test_missing_config_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "susy",
                           "--config", str(tmp_path / "absent.ini"))
        assert code == 2 and "error:" in err

    @pytest.mark.parametrize("text", [
        "order = abc\n",
        "order = 3\norder = 7\n",
        "colour = blue\n",
        "format = xml\n",
    ], ids=["non-integer", "duplicate-key", "unknown-key", "bad-choice"])
    def test_bad_config_is_usage_error(self, capsys, tmp_path, text):
        cfgfile = tmp_path / "run.ini"
        cfgfile.write_text(text)
        code, out, err = run(capsys, "verify", "lattice",
                             "--config", str(cfgfile))
        assert code == 2 and out == ""
        assert "error:" in err and "usage:" in err

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "verify", "lattice", "--order", "3",
                           "--out", str(target))
        assert code == 0
        assert out == ""
        report = json.loads(target.read_text())
        assert report["status"] == "pass"


# stdout of each call, byte for byte; recorded before argparse took over
# the config defaults and one Table came to render both multiplicity tables
PINNED_OUTPUT = [
    ("table mult --order 7 --height 2 --format text",
        "coset\tm\tn\tnorm\tpairing_divisor\tmult_even\tmult_odd\tsource\n"
        "0+0\t0\t1\t0\t1\t1\t1\ttheorem1=closed\n"
        "0+0\t1\t0\t0\t1\t1\t1\ttheorem1=closed\n"
        "0+0\t0\t2\t0\t2\t1\t1\ttheorem1=closed\n"
        "0+0\t1\t1\t-2\t1\t2\t2\ttheorem1=closed\n"
        "0+6\t1\t1\t-12/7\t1\t0\t0\ttheorem1=closed\n"
        "0+1\t1\t1\t-12/7\t1\t0\t0\ttheorem1=closed\n"
        "0+3\t1\t1\t-10/7\t1\t0\t0\ttheorem1=closed\n"
        "0+4\t1\t1\t-10/7\t1\t0\t0\ttheorem1=closed\n"
        "0+3\t1\t1\t-10/7\t1\t0\t0\ttheorem1=closed\n"
        "0+4\t1\t1\t-10/7\t1\t0\t0\ttheorem1=closed\n"
        "0+2\t1\t1\t-6/7\t1\t0\t0\ttheorem1=closed\n"
        "0+5\t1\t1\t-6/7\t1\t0\t0\ttheorem1=closed\n"
        "0+5\t1\t1\t-6/7\t1\t0\t0\ttheorem1=closed\n"
        "0+2\t1\t1\t-6/7\t1\t0\t0\ttheorem1=closed\n"
        "0+2\t1\t1\t-6/7\t1\t0\t0\ttheorem1=closed\n"
        "0+5\t1\t1\t-6/7\t1\t0\t0\ttheorem1=closed\n"
        "0+0\t1\t1\t0\t1\t1\t1\ttheorem1=closed\n"
        "0+0\t1\t1\t0\t1\t1\t1\ttheorem1=closed\n"
        "0+0\t2\t0\t0\t2\t1\t1\ttheorem1=closed\n"),
    ("table mult --order 7 --height 2 --format csv",
        "coset,m,n,norm,pairing_divisor,mult_even,mult_odd,source\n"
        "0+0,0,1,0,1,1,1,theorem1=closed\n"
        "0+0,1,0,0,1,1,1,theorem1=closed\n"
        "0+0,0,2,0,2,1,1,theorem1=closed\n"
        "0+0,1,1,-2,1,2,2,theorem1=closed\n"
        "0+6,1,1,-12/7,1,0,0,theorem1=closed\n"
        "0+1,1,1,-12/7,1,0,0,theorem1=closed\n"
        "0+3,1,1,-10/7,1,0,0,theorem1=closed\n"
        "0+4,1,1,-10/7,1,0,0,theorem1=closed\n"
        "0+3,1,1,-10/7,1,0,0,theorem1=closed\n"
        "0+4,1,1,-10/7,1,0,0,theorem1=closed\n"
        "0+2,1,1,-6/7,1,0,0,theorem1=closed\n"
        "0+5,1,1,-6/7,1,0,0,theorem1=closed\n"
        "0+5,1,1,-6/7,1,0,0,theorem1=closed\n"
        "0+2,1,1,-6/7,1,0,0,theorem1=closed\n"
        "0+2,1,1,-6/7,1,0,0,theorem1=closed\n"
        "0+5,1,1,-6/7,1,0,0,theorem1=closed\n"
        "0+0,1,1,0,1,1,1,theorem1=closed\n"
        "0+0,1,1,0,1,1,1,theorem1=closed\n"
        "0+0,2,0,0,2,1,1,theorem1=closed\n"),
    ("table mult --order 7 --height 2 --format json",
        '{"columns":["coset","m","n","norm","pairing_divisor",'
        '"mult_even","mult_odd","source"],"order":7,"rows":[["0+0","0",'
        '"1","0","1","1","1","theorem1=closed"],["0+0","1","0","0","1",'
        '"1","1","theorem1=closed"],["0+0","0","2","0","2","1","1",'
        '"theorem1=closed"],["0+0","1","1","-2","1","2","2",'
        '"theorem1=closed"],["0+6","1","1","-12/7","1","0","0",'
        '"theorem1=closed"],["0+1","1","1","-12/7","1","0","0",'
        '"theorem1=closed"],["0+3","1","1","-10/7","1","0","0",'
        '"theorem1=closed"],["0+4","1","1","-10/7","1","0","0",'
        '"theorem1=closed"],["0+3","1","1","-10/7","1","0","0",'
        '"theorem1=closed"],["0+4","1","1","-10/7","1","0","0",'
        '"theorem1=closed"],["0+2","1","1","-6/7","1","0","0",'
        '"theorem1=closed"],["0+5","1","1","-6/7","1","0","0",'
        '"theorem1=closed"],["0+5","1","1","-6/7","1","0","0",'
        '"theorem1=closed"],["0+2","1","1","-6/7","1","0","0",'
        '"theorem1=closed"],["0+2","1","1","-6/7","1","0","0",'
        '"theorem1=closed"],["0+5","1","1","-6/7","1","0","0",'
        '"theorem1=closed"],["0+0","1","1","0","1","1","1",'
        '"theorem1=closed"],["0+0","1","1","0","1","1","1",'
        '"theorem1=closed"],["0+0","2","0","0","2","1","1",'
        '"theorem1=closed"]]}\n'),
    ("table simple_roots --order 7 --height 8 --format text",
        "k\tmult_even\tmult_odd\n"
        "1\t1\t1\n"
        "2\t1\t1\n"
        "3\t1\t1\n"
        "4\t1\t1\n"
        "5\t1\t1\n"
        "6\t1\t1\n"
        "7\t2\t2\n"
        "8\t1\t1\n"),
    ("table simple_roots --order 7 --height 8 --format csv",
        "k,mult_even,mult_odd\n"
        "1,1,1\n"
        "2,1,1\n"
        "3,1,1\n"
        "4,1,1\n"
        "5,1,1\n"
        "6,1,1\n"
        "7,2,2\n"
        "8,1,1\n"),
    ("table simple_roots --order 7 --height 8 --format json",
        '{"columns":["k","mult_even","mult_odd"],"order":"7",'
        '"rows":[["1","1","1"],["2","1","1"],["3","1","1"],["4","1","1"],'
        '["5","1","1"],["6","1","1"],["7","2","2"],["8","1","1"]]}\n'),
    ("dump c3 --prec 3 --format text",
        "0\t2\n"
        "1\t8\n"
        "2\t24\n"),
    ("dump c3 --prec 3 --format csv",
        "exponent,coefficient\n"
        "0,2\n"
        "1,8\n"
        "2,24\n"),
    ("dump c3 --prec 3 --format json",
        '{"prec":"3","series":"c3","terms":[["0","2"],["1","8"],["2",'
        '"24"]]}\n'),
    ("verify lattice --order 3",
        "pass  fixed_rank\n"
        "pass  fixed_det\n"
        "pass  fixed_level\n"
        "pass  discriminant_group\n"
        "pass  fixed_even\n"
        "pass  complement_root_count\n"
        "pass  complement_det\n"
        "pass  n_dual_inside_lattice\n"
        "status: pass\n"),
]


def _spin_json(order, height, last, status):
    """verify spin --format json without wall_ms: six checks that pass at
    every shipped order, then the spin-equals-vector check."""
    passing = "".join(
        '{"first_discrepancy":null,"name":"%s","pass":true,"range":%s},'
        % (name, rng) for name, rng in (
            ("vector_action_matches_table", "null"),
            ("matrix_order", "null"), ("cycle_shape_V", "null"),
            ("cycle_shape_L", "null"), ("spinor_traces_equal", "null"),
            ("triality_on_basis_pairs", '"64 basis pairs"')))
    return ('{"checks":[' + passing + last + '],"command":"verify spin",'
            '"params":{"height":"%s","jobs":"1","order":"%s","prec":"50"},'
            '"status":"%s"}\n' % (height, order, status))


_SPIN_EQUAL = ('{"first_discrepancy":null,'
               '"name":"spin_reps_equal_vector_rep","pass":true,'
               '"range":null}')
_SPIN_DIFFER = ('{"first_discrepancy":{"expected":"equal to rho_V",'
                '"got":"different matrices","location":"rho_L,rho_R"},'
                '"name":"spin_reps_equal_vector_rep","pass":false,'
                '"range":null}')


class TestVerifySpin:
    @pytest.mark.parametrize("order,code,expected", [
        (1, 0, _spin_json(1, 4, _SPIN_EQUAL, "pass")),
        (3, 0, _spin_json(3, 6, _SPIN_EQUAL, "pass")),
        (7, 1, _spin_json(7, 6, _SPIN_DIFFER, "fail")),
    ])
    def test_json_bytes(self, capsys, order, code, expected):
        got = run(capsys, "verify", "spin", "--order", str(order),
                  "--format", "json")
        assert (got[0], re.sub(r',"wall_ms":[0-9]+', "", got[1]), got[2]) \
            == (code, expected, "")

    def test_each_shape_computed_once(self, capsys, monkeypatch):
        from superdenom import octonion
        calls = []
        for name in ("matrix_order", "cycle_shape"):
            def counted(m, _f=getattr(octonion, name), _n=name):
                calls.append(_n)
                return _f(m)
            monkeypatch.setattr(octonion, name, counted)
        assert run(capsys, "verify", "spin", "--order", "7")[0] == 1
        assert sorted(calls) == ["cycle_shape", "cycle_shape",
                                 "matrix_order"]


class TestPinnedOutput:
    @pytest.mark.parametrize("argv,expected", PINNED_OUTPUT,
                             ids=[a for a, _ in PINNED_OUTPUT])
    def test_output_bytes(self, capsys, argv, expected):
        code, out, err = run(capsys, *argv.split())
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("argv", [("--help",), ("verify", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: superdenom")


class TestHelpNamesReaders:
    """Each option's help names the targets of its command that read it,
    as READS lists them; an option none of them reads is not shown."""

    OPTIONS = ("order", "height", "prec", "max_norm", "jobs")

    @staticmethod
    def _readers(help_text):
        m = re.fullmatch(r".*\(read by: (.*)\)", help_text, re.S)
        return m.group(1).split(", ")

    @pytest.mark.parametrize("key", sorted(READS, key=str),
                             ids=lambda k: " ".join(filter(None, k)))
    def test_help_text_matches_reads(self, capsys, key):
        command, what = key
        name = " ".join(filter(None, key))
        actions = {a.dest: a for a in build_parser()[1][command]._actions}
        code, out, _ = run(capsys, command, "--help")
        assert code == 0
        for dest in self.OPTIONS:
            flag = "--" + dest.replace("_", "-")
            if not any(dest in READS[k] for k in READS if k[0] == command):
                assert actions[dest].help == argparse.SUPPRESS
                assert flag not in out, (command, flag)
                continue
            assert flag in out
            assert (name in self._readers(actions[dest].help)) == \
                (dest in READS[key]), (name, dest)
