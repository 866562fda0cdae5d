import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st
from reference import build_parser, json_terms

from tqeuler import cfrac, cli, registry
from tqeuler.exactalg import ZERO, LaurentPoly
from tqeuler.registry import RegistryConfigError, run_verification


def json_dumps_terms(poly):
    return json.dumps(json_terms(poly), indent=2, sort_keys=True)


def seidel_zigzag(count):
    """Euler zigzag numbers E_0 .. E_{count-1} (secant numbers at even, tangent
    numbers at odd index) by Seidel's boustrophedon triangle."""
    row, out = [1], [1]
    while len(out) < count:
        nxt = [0]
        for v in reversed(row):
            nxt.append(nxt[-1] + v)
        row = nxt
        out.append(row[-1])
    return out


def compute_json(capsys, target, n):
    """The polynomial that ``tqeuler compute <target> --n <n> --format json`` prints."""
    assert cli.main(["compute", target, "--n", str(n), "--format", "json"]) == 0
    return LaurentPoly({(r["et"], r["eq"]): int(r["c"]) for r in json.loads(capsys.readouterr().out)})


class TestDivisionTargets:
    """``compute d``, ``e-even`` and ``e-odd`` divide a moment exactly by a power of
    1 - q; at n = 12 that is (1-q)**24, a power no registry identity divides by."""

    def test_seidel_zigzag(self):
        assert seidel_zigzag(8) == [1, 1, 1, 2, 5, 16, 61, 272]

    @pytest.mark.parametrize("n", range(13))
    def test_values_at_q_one_and_multiplied_back(self, n, capsys):
        one_minus_q = LaurentPoly({(0, 0): 1, (0, 1): -1})
        zigzag = seidel_zigzag(2 * n + 2)
        even, odd, d = (compute_json(capsys, target, n) for target in ("e-even", "e-odd", "d"))
        assert even.evaluate(1, 1) == zigzag[2 * n]
        assert odd.evaluate(1, 1) == zigzag[2 * n + 1]
        assert d.evaluate(1, 1) == math.prod(range(1, 2 * n, 2))
        hat = cfrac.euler_hat(n)
        assert even * one_minus_q ** (2 * n) == hat.substitute_t(1, 0)
        assert odd * one_minus_q ** (2 * n) == hat.substitute_t(1, 1)
        assert d * one_minus_q**n == cfrac.dn_hat(n)


class TestCompute:
    def test_t_polynomial(self, capsys):
        assert cli.main(["compute", "t", "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() == "1 - q - t*q"

    def test_d_zero(self, capsys):
        assert cli.main(["compute", "d", "--n", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_e_zero(self, capsys):
        # order 0 has no path of its own in the moment DP: moment 0 is decoded like every other
        assert cli.main(["compute", "e", "--n", "0"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_e_ladder_matches_the_benchmark_digests(self, capsys):
        # the outputs the euler-ladder workload gates on, one digest per n; the file is only read
        path = Path(__file__).resolve().parents[1] / "perfbench" / "ladder_digests.json"
        digests = json.loads(path.read_text(encoding="utf-8"))
        assert list(digests) == [str(n) for n in range(13)]
        for n, digest in digests.items():
            assert cli.main(["compute", "e", "--n", n, "--format", "json"]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest, n

    def test_e_normalized(self, capsys):
        assert cli.main(["compute", "e", "--n", "1", "--normalized"]) == 0
        assert capsys.readouterr().out.strip() == "1 - q - t*q + t*q^2"

    def test_d_reduced_vs_normalized(self, capsys):
        cli.main(["compute", "d", "--n", "2"])
        assert capsys.readouterr().out.strip() == "2 + q"
        cli.main(["compute", "d", "--n", "2", "--normalized"])
        assert capsys.readouterr().out.strip() == "2 - 3*q + q^3"

    @pytest.mark.parametrize("argv", [["t", "--k", "2"], ["e-even", "--n", "2"], ["e-odd", "--n", "2"]])
    def test_normalized_is_a_usage_error_but_for_e_and_d(self, argv, capsys):
        # e-even --n 2 used to print 2 + 2*q + q^2, the value without the flag
        assert cli.main(["compute", *argv, "--normalized"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --normalized")

    @pytest.mark.parametrize("argv, message", [
        (["e", "--n", "2", "--k", "5"], "--k applies to target 't' only"),
        (["d", "--k", "0", "--n", "1"], "--k applies to target 't' only"),
        (["e-odd", "--n", "2", "--k", "1"], "--k applies to target 't' only"),
        (["t", "--k", "1", "--n", "7"], "--n applies to targets 'e', 'd', 'e-even' and 'e-odd' only"),
    ])
    def test_an_option_the_target_does_not_read_is_a_usage_error(self, argv, message, capsys, monkeypatch):
        # compute e --n 2 --k 5 used to print E_2, and compute t --k 1 --n 7 T_1
        for module, name in ((cfrac, "euler_hat"), (cfrac, "dn_hat"), (cfrac, "en_odd_q"),
                             (cli.formulas, "tk_recurrence")):
            monkeypatch.setattr(module, name, lambda size: pytest.fail("a polynomial was computed"))
        assert cli.main(["compute", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_json_format(self, capsys):
        assert cli.main(["compute", "e", "--n", "1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {"et": 1, "eq": 2, "c": "1"} in data

    @pytest.mark.parametrize("n", range(7))
    def test_json_render_is_json_dumps(self, n):
        poly = cfrac.euler_hat(n)
        assert cli._render_poly(poly, "json") == json_dumps_terms(poly)

    def test_json_render_zero(self):
        assert cli._render_poly(ZERO, "json") == "[]" == json_dumps_terms(ZERO)

    @given(
        st.dictionaries(
            st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
            st.sampled_from([1, -1, 2**200, -(2**200)]) | st.integers(-99, 99),
            max_size=12,
        )
    )
    def test_json_render_hypothesis(self, terms):
        poly = LaurentPoly(terms)
        assert cli._render_poly(poly, "json") == json_dumps_terms(poly)

    def test_every_output_frozen(self, capsys):
        # The renderers read a polynomial's rows: every compute output, in every
        # format, stays byte for byte as this digest froze it.
        out = hashlib.sha256()
        for fmt in ("text", "json", "csv"):
            for target, flag, top in (("e", "--n", 12), ("d", "--n", 12), ("e-even", "--n", 12),
                                      ("e-odd", "--n", 12), ("t", "--k", 10)):
                for n in range(top + 1):
                    assert cli.main(["compute", target, flag, str(n), "--format", fmt]) == 0
                    out.update(capsys.readouterr().out.encode())
        assert out.hexdigest() == "89ee7ed1fae22abcb62e4eaa1f15ea6be46344077a37c73c83fbe1da2e457c86"

    def test_csv_format(self, capsys):
        assert cli.main(["compute", "t", "--k", "0", "--format", "csv"]) == 0
        assert capsys.readouterr().out == "et,eq,c\r\n0,0,1\r\n"

    def test_missing_parameter(self, capsys):
        assert cli.main(["compute", "t"]) == 2
        assert "requires --k" in capsys.readouterr().err

    def test_out_of_range(self, capsys):
        assert cli.main(["compute", "e", "--n", "99"]) == 2
        assert cli.main(["compute", "e", "--n", "-1"]) == 2

    def test_bad_target(self):
        assert cli.main(["compute", "zzz", "--n", "1"]) == 2


def parse_outcome(parse, argv):
    """What ``parse(argv)`` did: ``("help", 0)``, ``("error", 2)`` or ``("accept", fields)``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            parsed = parse(argv)
        except SystemExit as exc:  # argparse exits on help and on a usage error
            parsed = exc.code
    if not isinstance(parsed, int):
        return "accept", {key: value for key, value in vars(parsed).items() if key != "fn"}
    if parsed == 0:
        assert out.getvalue().startswith("usage: ") and err.getvalue() == ""
        return "help", 0
    assert parsed == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("usage: tqeuler") and ": error: " in err.getvalue().splitlines()[-1]
    return "error", 2


OPTION_NAMES = ["--n", "--k", "--normalized", "--format", "--max-n", "--max-k", "--max-b", "--select",
                "--json", "--help", "-h", "--no", "--norm", "--f", "--form", "--max", "--max-", "--m",
                "--s", "--sel", "--j", "--js", "--h", "--he", "--jobs", "--zz", "--nn"]
VALUES = ["compute", "verify", "bench", "e", "t", "d", "e-even", "e-odd", "zzz", "text", "json", "csv",
          "0", "3", "12", "99", "-1", "-2.5", "-.5", "+3", " 4", "x", "", "a b", "-a b", "-"]


class TestParser:
    """The command table against the argparse parser it replaced (``reference.build_parser``).
    Left out of the alphabet: ``--`` and single-dash tokens but ``-h`` and negative numbers,
    whose argparse handling differs between Python versions."""

    @given(st.lists(st.sampled_from(OPTION_NAMES + VALUES)
                    | st.builds("{}={}".format, st.sampled_from(OPTION_NAMES), st.sampled_from(VALUES)),
                    max_size=6))
    @example(["verify", "--jobs", "2"])
    @example(["compute", "e", "--n", "x"])
    @example(["compute", "zzz", "--n", "1"])
    @example(["compute", "e", "--n", "-1"])
    @example(["compute", "e", "--form", "json", "--n", "0"])
    @example(["compute", "e", "--n=3"])
    @example(["verify", "--max", "2"])
    @example(["--help"])
    @example(["compute", "--help"])
    @example([])
    def test_same_outcome_as_argparse(self, argv):
        assert parse_outcome(cli._parse, argv) == parse_outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", [["-h"], ["compute", "-h"], ["verify", "--help"], ["bench", "--he"]])
    def test_help_prints_every_help_string(self, argv, capsys):
        parser = build_parser()
        commands = parser._subparsers._group_actions[0]
        if len(argv) > 1:
            parser = commands.choices[argv[0]]
            texts = [action.help for action in parser._actions if action.help]
        else:
            texts = [parser.description, *(action.help for action in commands._choices_actions)]
        assert cli.main(argv) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert all(" ".join(text.split()) in out for text in texts)

    def test_main_calls_the_handler_bound_when_it_runs(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_compute", lambda args: seen.append(vars(args)) or 7)
        assert cli.main(["compute", "e", "--n", "3"]) == 7
        assert seen == [{"command": "compute", "target": "e", "n": 3, "k": None,
                         "normalized": False, "format": "text"}]

    def test_reuse_after_a_usage_error(self, capsys):
        argv = ["compute", "e", "--n", "3", "--format", "json"]
        assert cli.main(argv) == 0
        fresh = capsys.readouterr()
        assert cli.main(["compute", "e", "--n", "x"]) == 2
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert capsys.readouterr() == fresh


MAX_BOUNDS = ["--max-n", "12", "--max-k", "10", "--max-b", "8"]


class TestVerify:
    def test_small_bounds_pass(self, capsys):
        assert cli.main(["verify", "--max-n", "2", "--max-k", "2", "--max-b", "1"]) == 0
        assert "summary: pass=236 fail=0 skipped=0" in capsys.readouterr().out
        assert cli.main(["verify", "--max-n", "2", "--max-k", "2", "--max-b", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"] == {"pass": 236, "fail": 0, "skipped": 0}

    def test_trivial_bounds(self, capsys):
        assert cli.main(["verify", "--max-n", "0", "--max-k", "0", "--max-b", "0"]) == 0
        assert "summary: pass=79 fail=0 skipped=0" in capsys.readouterr().out
        assert cli.main(["verify", "--max-n", "0", "--max-k", "0", "--max-b", "0", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"] == {"pass": 79, "fail": 0, "skipped": 0}

    @pytest.mark.parametrize("argv, summary, counts", [
        # the three lattice-path oracles at max bounds: the M walk runs to its cutoff k = 7,
        # which the default bounds never reach; k = 8..10 are the three skipped cells
        (MAX_BOUNDS + ["--select", "tk-mpath,lpath,lprime"], {"pass": 408, "fail": 0, "skipped": 3},
         {"tk-mpath": 11, "lpath-yaxis": 100, "lpath-xaxis": 120, "lprime-yaxis": 100, "lprime-xaxis": 80}),
        # the alternating-permutation oracle is a state transfer; its grids keep their exact cell counts
        (["--select", "anchor,alternating-statistic"], {"pass": 25, "fail": 0, "skipped": 0},
         {"secant-anchor": 5, "tangent-anchor": 5, "dn-anchor": 6, "alternating-statistic": 9}),
        # the many-sided equality rows (anchors, zeng, Gaussian lists, t = +-1) at max bounds
        (MAX_BOUNDS + ["--select", "anchor,zeng,gauss,tk-at-one,tk-at-minus-one"],
         {"pass": 104, "fail": 0, "skipped": 0},
         {"tk-at-one": 11, "tk-at-minus-one": 11, "secant-anchor": 5, "tangent-anchor": 5, "dn-anchor": 6,
          "zeng-numeric": 25, "gauss-pascal": 20, "gauss-symmetry": 21}),
    ], ids=["path-families-max", "anchors-default", "many-sided-max"])
    def test_cell_counts(self, argv, summary, counts, capsys):
        assert cli.main(["verify", *argv, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["summary"] == summary
        assert Counter(case["id"] for case in report["cases"]) == counts

    def test_select_filter(self, capsys):
        assert cli.main(["verify", "--select", "touchard-riordan", "--max-n", "10"]) == 0
        out = capsys.readouterr().out
        assert out.count("touchard-riordan") == 11

    def test_select_no_match(self, capsys):
        assert cli.main(["verify", "--select", "definitely-not-an-id"]) == 2
        assert "matches no identity" in capsys.readouterr().err

    def test_bounds_cap(self, capsys):
        assert cli.main(["verify", "--max-n", "99"]) == 2

    def test_bad_jobs(self, capsys):
        # the thread-pool option is gone; the parser rejects it as unknown
        assert cli.main(["verify", "--jobs", "2"]) == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_json_report_roundtrips_byte_identical(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code = cli.main(
            ["verify", "--max-n", "2", "--max-k", "2", "--max-b", "1", "--json", str(path)]
        )
        assert code == 0
        capsys.readouterr()
        raw = path.read_text(encoding="utf-8")
        reemitted = json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n"
        assert reemitted == raw
        obj = json.loads(raw)
        assert obj["version"] == 1
        assert set(obj["summary"]) == {"pass", "fail", "skipped"}
        assert obj["summary"]["pass"] == sum(
            1 for c in obj["cases"] if c["status"] == "pass"
        )

    def test_json_stdout_format(self, capsys):
        assert cli.main(["verify", "--max-n", "1", "--max-k", "1", "--max-b", "1",
                         "--select", "tk-closed", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert all(c["id"] == "tk-closed" for c in obj["cases"])

    def test_deterministic_apart_from_timing(self):
        kwargs = dict(max_n=2, max_k=2, max_b=1)
        first = run_verification(**kwargs).to_json_obj()
        second = run_verification(**kwargs).to_json_obj()
        for case in first["cases"] + second["cases"]:
            case["ms"] = case["us"] = 0
        assert first == second

    def test_us_timing_field(self):
        report = run_verification(max_n=2, max_k=2, max_b=1)
        obj = report.to_json_obj()
        assert obj["version"] == 1
        for case in obj["cases"]:
            assert type(case["us"]) is int and case["us"] >= 0
            assert case["ms"] == case["us"] // 1000
        slow = registry.Case("x", {"n": 1}, "pass", 12_345_678)
        assert slow.to_json_obj() == {
            "id": "x", "params": {"n": 1}, "status": "pass", "ms": 12_345, "us": 12_345_678
        }
        # the text report keeps whole milliseconds
        assert " n=1 (12345 ms)\n" in registry.VerificationReport([slow]).render_text()

    @pytest.mark.parametrize("select", [None, "gauss"])
    @pytest.mark.parametrize("bound", ["max_n", "max_k", "max_b"])
    def test_non_integer_bound_raises_before_any_check(self, bound, select):
        # raised by Bounds before any grid is built, also for a selection whose grids never read it
        with pytest.raises(TypeError):
            run_verification(**{bound: 2.5}, select=select)

    def test_registry_config_errors(self):
        with pytest.raises(RegistryConfigError):
            run_verification(max_n=-1)
        for select in (" , ", ""):
            with pytest.raises(RegistryConfigError, match="empty selector"):
                run_verification(select=select)
        for select in (["tk-closed"], ("tk-closed",), [], 5):
            with pytest.raises(RegistryConfigError, match="comma-separated string"):
                run_verification(select=select)

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_json_path_not_writable(self, tmp_path, capsys, target):
        # exit 1 means a failing identity, so an unwritable --json path is a usage error
        args = ["verify", "--max-n", "0", "--max-k", "0", "--max-b", "0"]
        assert cli.main(args + ["--json", str(tmp_path / target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write --json file: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_json_path_checked_before_the_matrix(self, tmp_path, capsys, monkeypatch, target):
        def run_verification(**kwargs):
            raise AssertionError("the matrix ran before the --json path was checked")

        monkeypatch.setattr(registry, "run_verification", run_verification)
        args = ["verify", "--max-n", "12", "--max-k", "10", "--max-b", "8"]
        assert cli.main(args + ["--json", str(tmp_path / target)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write --json file: ")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_empty_selector_is_a_usage_error(self, capsys):
        # None selects every identity; an empty string selects none and is refused
        assert cli.main(["verify", "--max-n", "0", "--max-k", "0", "--max-b", "0", "--select", ""]) == 2
        assert capsys.readouterr() == ("", "error: empty selector\n")

    def test_empty_json_path_is_refused_before_the_matrix(self, tmp_path, capsys, monkeypatch):
        def run_verification(**kwargs):
            raise AssertionError("the matrix ran before the --json path was checked")

        monkeypatch.setattr(registry, "run_verification", run_verification)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--max-n", "0", "--max-k", "0", "--max-b", "0", "--json", ""]) == 2
        assert capsys.readouterr() == ("", "error: cannot write --json file: '' is not a writable file path\n")
        assert list(tmp_path.iterdir()) == []

    def test_json_path_check_keeps_an_existing_file(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "report.json"
        path.write_text("old", encoding="utf-8")
        monkeypatch.setattr(os, "access", lambda p, mode: False)  # a read-only file
        assert cli.main(["verify", "--max-n", "0", "--max-k", "0", "--max-b", "0",
                         "--json", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write --json file: ")
        assert path.read_text(encoding="utf-8") == "old"

    def test_bounds_checked_before_the_json_path(self, tmp_path, capsys):
        args = ["verify", "--max-n", "13", "--json", str(tmp_path / "missing/x.json")]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == "error: max_n must be in 0..12\n"

    def test_identity_ids_unique(self):
        ids = registry.identity_ids()
        assert len(ids) == len(set(ids))
        assert "touchard-riordan" in ids


class TestBench:
    def test_csv_shape(self, capsys):
        assert cli.main(["bench", "--max-n", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,method,ms,terms"
        assert len(lines) == 1 + 3 * 4  # four methods per n

    def test_n0_constant(self, capsys):
        cli.main(["bench", "--max-n", "0"])
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        assert all(row[3] == "1" for row in rows)  # every method yields the constant 1

    def test_brute_cutoff_marker(self, capsys):
        cli.main(["bench", "--max-n", "7"])
        out = capsys.readouterr().out
        assert "7,dyck-brute,cutoff," in out

    def test_row_bytes(self, capsys):
        # CSV as the csv module writes it: every row ends in \r\n, and a cutoff row has an empty last field
        assert cli.main(["bench", "--max-n", "7"]) == 0
        rows = capsys.readouterr().out.split("\r\n")
        assert rows[0] == "n,method,ms,terms" and rows[-2:] == ["7,dyck-brute,cutoff,", ""]
        assert len(rows) == 1 + 8 * 4 + 1
        for row in rows[1:-2]:
            assert re.fullmatch(r"[0-7],(moment-dp|ballot-form|odd-poch-sum|dyck-brute),[0-9]+,[0-9]+", row), row

    def test_dyck_cutoff_is_the_verify_range(self, capsys):
        # bench and verify run the brute-force Dyck oracle over one range
        assert cli.main(["bench", "--max-n", "8"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
        cut = {int(n) for n, method, ms, _ in rows if method == "dyck-brute" and ms == "cutoff"}
        assert cli.main(["verify", "--max-n", "8", "--select", "euler-dyck-oracle", "--format", "json"]) == 0
        cases = json.loads(capsys.readouterr().out)["cases"]
        skipped = {c["params"]["n"] for c in cases if c["status"] == "skipped"}
        assert cut == skipped == set(range(registry.DYCK_ORACLE_MAX_N + 1, 9))
        assert {c["detail"] for c in cases if c["status"] == "skipped"} == {
            f"brute-force Dyck oracle capped at n <= {registry.DYCK_ORACLE_MAX_N}"}

    def test_bad_bounds(self):
        assert cli.main(["bench", "--max-n", "99"]) == 2


class TestModuleEntryPoint:
    """``python -m tqeuler`` runs ``cli.main`` and exits with its code."""

    def run(self, *args):
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
        return subprocess.run(
            [sys.executable, "-m", "tqeuler", *args],
            capture_output=True, text=True, env=env, timeout=120,
        )

    def test_verify_passes(self):
        proc = self.run("verify", "--max-n", "2", "--max-k", "2", "--max-b", "1")
        assert proc.returncode == 0, proc.stderr
        assert "fail=0" in proc.stdout

    def test_compute_out_of_range(self):
        proc = self.run("compute", "e", "--n", "13")
        assert proc.returncode == 2
        assert "--n must be in 0..12" in proc.stderr
