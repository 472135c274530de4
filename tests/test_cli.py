import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp

import gcf_forge
from gcf_forge import cli, factorize, gcf, poly, series, verify_conjecture
from gcf_forge.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    EXIT_REFUTED,
    build_parser,
    load_problem_file,
    main,
    report_to_dict,
)
from gcf_forge.errors import ProblemFileError

from oracles import report_from_dict


def write_problem(tmp_path: Path, name: str, **fields) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


@pytest.fixture
def default_int_text_limit():
    """The interpreter's default int-to-text limit, 4300 digits, whatever the run set."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture
def quartic_file(problems_dir) -> str:
    return str(problems_dir / "eight_over_pi_squared.json")


class TestProblemFile:
    def test_loads_bundled_problem(self, quartic_file):
        pf = load_problem_file(quartic_file)
        assert pf.name == "eight_over_pi_squared"
        assert pf.problem.b0 == 1
        assert pf.problem.a.degree == 4
        assert pf.problem.target is not None

    def test_unknown_field_rejected(self, tmp_path):
        path = write_problem(tmp_path, "p.json", b0="1", a="-n", b="1", extra="x")
        with pytest.raises(ProblemFileError):
            load_problem_file(path)

    def test_missing_field_rejected(self, tmp_path):
        path = write_problem(tmp_path, "p.json", b0="1", a="-n")
        with pytest.raises(ProblemFileError):
            load_problem_file(path)

    def test_non_string_field_rejected(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"b0": 1, "a": "-n", "b": "1"}')
        with pytest.raises(ProblemFileError):
            load_problem_file(str(path))


class TestEval:
    def test_table_rows(self, quartic_file, capsys):
        code = main(["eval", quartic_file, "--depth", "2", "--exact"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "6/7" in out
        assert "90/109" in out

    def test_depth_zero_single_row(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", b0="5", a="-n", b="n+1")
        code = main(["eval", path, "--depth", "0", "--exact"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        rows = [line for line in out.splitlines() if line and line[0] != "#"]
        assert len(rows) == 2  # header + the n = 0 row
        assert rows[1].split()[-1] == "5"

    def test_negative_depth_refused_before_output(self, quartic_file, capsys):
        code = main(["eval", quartic_file, "--depth", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_PRECONDITION
        assert captured.out == ""
        assert captured.err == "error: depth must be nonnegative\n"

    def test_malformed_polynomial_exits_2(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", b0="1", a="-(2*n^4", b="1")
        code = main(["eval", path])
        err = capsys.readouterr().err
        assert code == EXIT_PARSE
        assert "offset" in err


class TestFactorize:
    def test_quartic_coupling_printed(self, quartic_file, capsys):
        code = main(["factorize", quartic_file])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "c = n^2; d = 2*n^2 - n" in out

    def test_empty_search_space_message(self, problems_dir, capsys):
        code = main(["factorize", str(problems_dir / "no_rational_coupling.json")])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "no coupling within linear-split search space" in out

    def test_zero_numerator_exits_3(self, tmp_path, capsys):
        path = write_problem(tmp_path, "p.json", b0="1", a="0", b="1")
        assert main(["factorize", path]) == EXIT_PRECONDITION


class TestSeries:
    def test_quartic_series_summary(self, quartic_file, capsys):
        code = main(["series", quartic_file, "--count", "3", "--exact"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "rho = 1/2" in out
        assert "convergent" in out
        assert "109/90" in out

    def test_without_coupling(self, problems_dir, capsys):
        code = main(["series", str(problems_dir / "no_rational_coupling.json")])
        assert code == EXIT_INCONCLUSIVE

    def test_shows_the_coupling_verify_uses(self, tmp_path, capsys):
        # c = 4n - 2, d = 4n + 10 is found first, but d(1) = 14 misses b0 = 2
        path = write_problem(tmp_path, "p.json", b0="2", a="-16*n^2 - 32*n + 20", b="8*n + 12")
        assert main(["series", path, "--count", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("coupling: c = 4*n + 10; d = 4*n - 2\n")
        report = verify_conjecture(load_problem_file(path).problem, digits=10, depth=16)
        assert out.startswith(f"coupling: {report.coupling}\n")

    def test_boundary_rule_failing_for_every_coupling_shows_no_table(self, tmp_path, capsys):
        # the flagship's one coupling has d(1) = 1, and b0 = 2
        path = write_problem(tmp_path, "p.json", b0="2", a="-(2*n^4 - n^3)", b="3*n^2 + 3*n + 1")
        assert main(["series", path]) == EXIT_INCONCLUSIVE
        out = capsys.readouterr().out
        assert out == "coupling: c = n^2; d = 2*n^2 - n\nboundary rule b0 = d(1): fails\n"

    def test_negative_count_refused_before_output(self, quartic_file, capsys):
        code = main(["series", quartic_file, "--count", "-1"])
        captured = capsys.readouterr()
        assert code == EXIT_PRECONDITION
        assert captured.out == ""
        assert captured.err == "error: count must be nonnegative\n"

    def test_one_cascade_for_terms_and_sums(self, quartic_file, monkeypatch, capsys):
        walks = []
        original = series.cascade

        def counting(*args):
            walks.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "cascade", counting)
        assert main(["series", quartic_file, "--count", "5"]) == EXIT_OK
        assert len(walks) == 1


class TestVerify:
    def test_one_factorization_per_command(self, quartic_file, monkeypatch, capsys):
        # loading the problem factors -a; the coupling search reads that result
        calls = []
        factor_rational = poly.factor_rational

        def counted(p):
            calls.append(p)
            return factor_rational(p)

        for module in (gcf_forge, factorize, gcf, poly):
            monkeypatch.setattr(module, "factor_rational", counted)
        assert main(["verify", quartic_file, "--digits", "10", "--depth", "16"]) == EXIT_OK
        assert len(calls) == 1

    def test_verified_exit_zero(self, quartic_file, capsys):
        code = main(["verify", quartic_file, "--digits", "30", "--depth", "64"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "verdict: verified" in out
        assert "digits matched: 30" in out

    def test_wrong_target_exits_one(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "p.json",
            b0="1",
            a="-(2*n^4 - n^3)",
            b="3*n^2 + 3*n + 1",
            target="pi^2/8",
        )
        code = main(["verify", path, "--digits", "20", "--depth", "32"])
        out = capsys.readouterr().out
        assert code == EXIT_REFUTED
        assert "verdict: refuted-at-depth" in out

    def test_no_target_exits_four(self, problems_dir, capsys):
        code = main(
            ["verify", str(problems_dir / "reciprocal_log2.json"), "--digits", "15"]
        )
        out = capsys.readouterr().out
        assert code == EXIT_INCONCLUSIVE
        assert "series value: 0.693147180559945" in out

    def test_json_report_round_trip(self, quartic_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main(
            [
                "verify",
                quartic_file,
                "--digits",
                "25",
                "--depth",
                "32",
                "--json",
                str(report_path),
            ]
        )
        capsys.readouterr()
        assert code == EXIT_OK
        doc = json.loads(report_path.read_text())
        assert doc["verdict"] == "verified"
        assert doc["rho"] == "1/2"
        assert doc["coupling"] == {"c": "n^2", "d": "2*n^2 - n"}
        rebuilt = report_from_dict(doc)
        assert report_to_dict(rebuilt) == doc

    def test_couplings_failing_boundary_rule_are_printed(self, tmp_path, capsys):
        # the flagship with b0 = 2: its one coupling has d(1) = 1, so none is eligible
        path = write_problem(
            tmp_path, "p.json", b0="2", a="-(2*n^4 - n^3)", b="3*n^2 + 3*n + 1", target="8/pi^2"
        )
        report = tmp_path / "report.json"
        argv = ["verify", path, "--digits", "20", "--depth", "16", "--json", str(report)]
        assert main(argv) == EXIT_INCONCLUSIVE
        out = capsys.readouterr().out
        assert "coupling: c = n^2; d = 2*n^2 - n\nboundary rule b0 = d(1): fails\n" in out
        assert "none within" not in out
        doc = json.loads(report.read_text())
        assert doc["coupling"] is None and not doc["boundary_rule_holds"]
        assert doc["other_couplings"] == [{"c": "n^2", "d": "2*n^2 - n"}]

    def test_target_off_in_twentieth_digit_refuted(self, tmp_path, capsys):
        path = write_problem(
            tmp_path,
            "p.json",
            b0="1",
            a="-(2*n^4 - n^3)",
            b="3*n^2 + 3*n + 1",
            target="8/pi^2 + 1/10^20",
        )
        assert main(["verify", path, "--digits", "30", "--depth", "64"]) == EXIT_REFUTED
        assert "digits matched: 20" in capsys.readouterr().out

    def test_precision_follows_digits_alone(self, problems_dir, tmp_path, monkeypatch, capsys):
        # the working precision follows --digits alone, so 40 bits here, below
        # the 100 that 30 digits need, change nothing
        runs = []
        for bits in (None, "40"):
            if bits is None:
                monkeypatch.delenv("GCF_FORGE_PRECISION_BITS", raising=False)
            else:
                monkeypatch.setenv("GCF_FORGE_PRECISION_BITS", bits)
            report = tmp_path / "report.json"
            argv = ["verify", str(problems_dir / "eight_over_pi_squared.json"), "--digits", "30"]
            code = main([*argv, "--json", str(report)])
            runs.append((code, capsys.readouterr(), report.read_bytes()))
        assert runs[0][0] == EXIT_OK
        assert runs[1] == runs[0]

    def test_far_onset_exits_three(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, "far.json", b0="2", a="-2*n*(n + 1000000000)", b="3*n + 1000000002"
        )
        assert main(["verify", path, "--digits", "20"]) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the geometric onset k = 1999999998 exceeds the budget of 1000000 terms\n"
        )

    def test_unwritable_report_exits_three(self, quartic_file, tmp_path, capsys):
        # a traceback would exit 1, which reads as refuted-at-depth
        path = tmp_path / "no-such-dir" / "r.json"
        argv = ["verify", quartic_file, "--digits", "10", "--depth", "16", "--json", str(path)]
        assert main(argv) == EXIT_PRECONDITION
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {path}: ")
        assert "verdict: verified" in captured.out
        assert "report written" not in captured.out
        assert not path.exists()

    def test_missing_file_is_parse_error(self, tmp_path, capsys):
        assert main(["eval", str(tmp_path / "nope.json")]) == EXIT_PARSE

    def test_undecodable_file_is_parse_error(self, tmp_path, capsys):
        # a UnicodeDecodeError is a ValueError, which would exit 3 and name no path
        path = tmp_path / "p.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["verify", str(path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")

    def test_duplicate_field_is_parse_error(self, tmp_path, capsys):
        # json.loads alone keeps the last b0 and would verify b0 = 2
        path = tmp_path / "p.json"
        path.write_text('{"b0": "1", "a": "-(2*n^4 - n^3)", "b": "3*n^2 + 3*n + 1", "b0": "2"}')
        assert main(["verify", str(path)]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: {path}: duplicate field 'b0'\n")

    @pytest.mark.parametrize(
        "fields",
        [
            {"b0": "1", "a": "(" * 1000 + "-n" + ")" * 1000, "b": "n + 1"},
            {"b0": "1", "a": "-n", "b": "n + 1", "target": " + ".join(["1"] * 5000)},
            {"b0": "1", "a": "-n", "b": "n + 1", "target": "pi^(2^2^33)"},
            {"b0": "1", "a": "-(n+1)^1000", "b": "n + 1"},
        ],
        ids=["nested-a", "long-target", "huge-power-target", "high-degree-a"],
    )
    def test_input_past_budget_is_parse_error(self, tmp_path, capsys, fields):
        path = write_problem(tmp_path, "p.json", **fields)
        assert main(["verify", path, "--digits", "15", "--depth", "8"]) == EXIT_PARSE
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"b0": "1" * 5000}, "literal too long (at offset 0)"),
            ({"target": "8/pi^2 + 1/" + "9" * 5000}, "literal too long (at offset 11)"),
        ],
        ids=["b0", "target"],
    )
    @pytest.mark.usefixtures("default_int_text_limit")
    def test_literal_past_int_text_limit_is_parse_error(self, tmp_path, capsys, fields, message):
        # 5000 digits pass the int-to-text limit of 4300
        fields = {"b0": "1", "a": "-n", "b": "n + 1", **fields}
        path = write_problem(tmp_path, "p.json", **fields)
        assert main(["verify", path, "--digits", "15", "--depth", "8"]) == EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.usefixtures("default_int_text_limit")
    def test_json_number_past_int_text_limit_is_parse_error(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text('{"b0": ' + "1" * 5000 + ', "a": "-n", "b": "n + 1"}')
        assert main(["verify", str(path)]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {path}: not valid JSON (Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize(
        "field,source,offset",
        [("a", "2\u00b2*n", 1), ("b", "\u00b2", 0), ("a", "-\u0663*n", 1), ("b0", "\u0661", 0)],
        ids=["superscript-after-digit", "superscript", "arabic-indic-digit", "arabic-indic-b0"],
    )
    def test_non_ascii_digit_is_parse_error(self, tmp_path, capsys, field, source, offset):
        fields = {"b0": "1", "a": "-n", "b": "n + 1", field: source}
        path = write_problem(tmp_path, "p.json", **fields)
        assert main(["verify", path, "--digits", "15", "--depth", "8"]) == EXIT_PARSE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: unexpected character {source[offset]!r} (at offset {offset})\n"

    # the verified shape is test_json_report_round_trip above
    @pytest.mark.parametrize(
        "source,rho,code",
        [
            (
                dict(b0="1", a="-(2*n^4 - n^3)", b="3*n^2 + 3*n + 1", target="8/pi^2 + 1/10^12"),
                "1/2",
                EXIT_REFUTED,
            ),
            ("no_rational_coupling.json", None, EXIT_INCONCLUSIVE),
            ("reciprocal_log2.json", "1/2", EXIT_INCONCLUSIVE),
            (dict(b0="1", a="-n^3", b="n^2 + n + 1"), "infinite", EXIT_INCONCLUSIVE),
            (dict(b0="1", a="-n^2", b="2*n + 1"), "1", EXIT_INCONCLUSIVE),
        ],
        ids=["refuted", "no-coupling", "no-target", "divergent", "rho-one"],
    )
    def test_json_round_trip_by_shape(self, problems_dir, tmp_path, capsys, source, rho, code):
        if isinstance(source, dict):
            path = write_problem(tmp_path, "p.json", **source)
        else:
            path = str(problems_dir / source)
        report_path = tmp_path / "report.json"
        argv = ["verify", path, "--digits", "20", "--depth", "32", "--json", str(report_path)]
        assert main(argv) == code
        capsys.readouterr()
        doc = json.loads(report_path.read_text())
        assert doc["rho"] == rho
        assert report_to_dict(report_from_dict(doc)) == doc
        pf = load_problem_file(path)
        report = verify_conjecture(pf.problem, digits=20, depth=32, name=pf.name)
        assert report_from_dict(doc) == report


# asin-z1_2 of the benchmark: with --exact, its A_n pass 640 digits at n = 276 and its
# S_k at k = 744; at the default limit of 4300 digits, `eval --depth 3000` fails at n = 1422
@pytest.mark.parametrize(
    "argv,row",
    [(["eval", "--depth", "300"], 276), (["series", "--count", "800"], 744)],
    ids=["eval", "series"],
)
def test_exact_entry_past_int_text_limit_refused_before_output(tmp_path, capsys, argv, row):
    path = write_problem(tmp_path, "p.json", b0="1", a="-n^2 + 1/2*n", b="5/2*n + 1")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the least the interpreter allows
    try:
        code = main([argv[0], path, *argv[1:], "--exact"])
        captured = capsys.readouterr()
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == EXIT_PRECONDITION
    assert captured.out == ""
    assert captured.err == (
        f"error: row {row} is too long to print exactly; "
        "the preview table (without --exact) rounds it\n"
    )
    assert main([argv[0], path, *argv[1:]]) == EXIT_OK  # the preview rounds the same entries


@pytest.mark.parametrize(
    "argv", [["eval", "--depth", "3000"], ["factorize"]], ids=["while-printing", "at-exit"]
)
def test_closed_stdout_exits_three(quartic_file, argv):
    # a reader that stops early closes the pipe, as `| head -1` does: the command exits 3,
    # since 1 reads as refuted-at-depth, with one error line and no traceback at the write
    # or at the exit's flush. eval's 3000 rows overrun the pipe's buffer while printing;
    # factorize's one line fails only when stdout is flushed
    src = str(Path(gcf_forge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    command = [sys.executable, "-m", "gcf_forge.cli", argv[0], quartic_file, *argv[1:]]
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        if argv[0] == "eval":
            assert proc.stdout.readline().startswith(b"# eight_over_pi_squared")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_PRECONDITION
    assert err.startswith("error: cannot write the output: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "source,digits,depth",
    [
        ("eight_over_pi_squared.json", 30, 250),
        (
            dict(  # member-off-14 of the benchmark's screening corpus, seed 1
                b0="5/8", a="(-75/64)*n^4 + (75/128)*n^3", b="(35/16)*n^2 + (15/8)*n + (5/8)",
                target="(5/8)*(27/(4*pi^2)) + 1/10^15",
            ),
            20,
            16,
        ),
    ],
    ids=["flagship", "screening"],
)
@pytest.mark.parametrize("setting,value", [("prec", 20), ("dps", 500)])
def test_caller_mpmath_precision_changes_nothing(
    problems_dir, tmp_path, source, digits, depth, setting, value
):
    # every rounding names its own precision, so the caller's mpmath context is neither
    # read nor changed
    if isinstance(source, dict):
        path = write_problem(tmp_path, "p.json", **source)
    else:
        path = str(problems_dir / source)
    pf = load_problem_file(path)
    expected = report_to_dict(verify_conjecture(pf.problem, digits, depth, name=pf.name))
    saved = mp.prec
    try:
        setattr(mp, setting, value)
        chosen = mp.prec
        doc = report_to_dict(verify_conjecture(pf.problem, digits, depth, name=pf.name))
        assert mp.prec == chosen
    finally:
        mp.prec = saved
    assert doc == expected


def test_parser_built_once(quartic_file, monkeypatch):
    assert build_parser() is build_parser()
    # the cached parser holds no command functions; main looks them up per call
    monkeypatch.setattr(cli, "cmd_factorize", lambda args: 7)
    assert main(["factorize", quartic_file]) == 7


def test_report_object_round_trip(quartic_file):
    from gcf_forge import verify_conjecture

    pf = load_problem_file(quartic_file)
    report = verify_conjecture(pf.problem, digits=15, depth=16, name=pf.name)
    rebuilt = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
    assert rebuilt == report


GOLDEN = Path(__file__).resolve().parent / "golden"
BUNDLED = ("eight_over_pi_squared", "no_rational_coupling", "reciprocal_log2")
# (golden suffix, argv): --exact prints reduced fractions, a preview rounds each entry to 64 bits
TABLES = (
    ("factorize", ["factorize"]),
    ("series", ["series", "--count", "6", "--exact"]),
    ("eval", ["eval", "--depth", "4", "--exact"]),
    ("series.preview", ["series", "--count", "6"]),
    ("eval.preview", ["eval", "--depth", "4"]),
)
TABLE_IDS = [golden for golden, _ in TABLES]


@pytest.mark.parametrize("golden,argv", TABLES, ids=TABLE_IDS)
@pytest.mark.parametrize("stem", BUNDLED)
def test_golden_stdout(problems_dir, capsys, stem, golden, argv):
    # byte for byte, so that how a polynomial is stored cannot change what is printed
    code = main([argv[0], str(problems_dir / f"{stem}.json"), *argv[1:]])
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{stem}.{golden}.txt").read_text()
    assert err == ""
    no_series = (stem, argv[0]) == ("no_rational_coupling", "series")
    assert code == (EXIT_INCONCLUSIVE if no_series else EXIT_OK)


# c = -2, d = n^2/2: every bundled problem has L = 1, and here L = 2, so each A_n and B_n
# is a frame divided by 2^(n+1); S_1 = t_0 + t_1 = 2 - 2 = 0, so B_1 = 0 and x_1 is "-"
SCALED = {"name": "scaled_vanishing", "b0": "1/2", "a": "n^2", "b": "(n+1)^2/2 - 2"}


@pytest.mark.parametrize("golden,argv", TABLES, ids=TABLE_IDS)
def test_golden_stdout_scaled(tmp_path, capsys, golden, argv):
    path = tmp_path / f"{SCALED['name']}.json"
    path.write_text(json.dumps(SCALED))
    code = main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{SCALED['name']}.{golden}.txt").read_text()
    assert err == ""
    assert code == EXIT_OK


VERIFY_RUNS = [(stem, stem, []) for stem in BUNDLED] + [
    ("eight_over_pi_squared", "eight_over_pi_squared.depth-4000", ["--depth", "4000"])
]


@pytest.mark.parametrize(
    "stem,golden,extra", VERIFY_RUNS, ids=[golden for _, golden, _ in VERIFY_RUNS]
)
def test_golden_verify(problems_dir, tmp_path, capsys, stem, golden, extra):
    # every depth, value and digit of the printed and the JSON report, byte for byte
    report = tmp_path / "report.json"
    code = main(["verify", str(problems_dir / f"{stem}.json"), *extra, "--json", str(report)])
    out, err = capsys.readouterr()
    assert out == (GOLDEN / f"{golden}.verify.txt").read_text() + f"report written to {report}\n"
    assert err == ""
    assert report.read_text() == (GOLDEN / f"{golden}.verify.json").read_text()
    assert code == (EXIT_OK if stem == "eight_over_pi_squared" else EXIT_INCONCLUSIVE)


UNCOUPLED = {"name": "uncoupled_decreasing", "b0": "2", "a": "-(n^2 + 2)", "b": "3*n + 1"}
# c = 2n^2, d = 2n^2 - n: a coupling whose series has rho = 1, so no sum stops
# the exact cascade that reads the convergents
RHO_ONE = {"name": "rho_one_coupled", "b0": "1", "a": "-2*n^2*(2*n^2 - n)", "b": "4*n^2 + 3*n + 1"}


def _check_inconclusive_golden(tmp_path, capsys, doc, depth=None):
    # no target, or no sum to compare and the deepest convergent is the reported value
    path = tmp_path / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    extra = [] if depth is None else ["--depth", str(depth)]
    code = main(["verify", str(path), *extra, "--json", str(report)])
    out, err = capsys.readouterr()
    golden = doc["name"] + ("" if depth is None else f".depth-{depth}") + ".verify"
    assert out == (GOLDEN / f"{golden}.txt").read_text() + f"report written to {report}\n"
    assert err == ""
    assert report.read_text() == (GOLDEN / f"{golden}.json").read_text()
    assert code == EXIT_INCONCLUSIVE


@pytest.mark.parametrize("depth", [16, 4000])
def test_golden_verify_uncoupled(tmp_path, capsys, depth):
    # no coupling, so the three-term walk alone gives the convergents; they fall
    # strictly, and at depth 4000 the halfway one agrees with the last to 30 digits
    _check_inconclusive_golden(tmp_path, capsys, UNCOUPLED, depth)


def test_golden_verify_scaled(tmp_path, capsys):
    # S_1 = 0 leaves x_1 undefined, which changes no limit: the certified sum gives
    # 2/(1 - J_0(4)) at the default depth
    _check_inconclusive_golden(tmp_path, capsys, SCALED)


@pytest.mark.parametrize("depth", [16, 4000])
def test_golden_verify_rho_one(tmp_path, capsys, depth):
    # the only walk no bundled problem takes: the exact cascade without a stop
    _check_inconclusive_golden(tmp_path, capsys, RHO_ONE, depth)
