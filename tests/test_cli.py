"""Command-line interface behaviour and output formats."""

import argparse
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nsmacdonald import cli
from nsmacdonald.cli import main
from nsmacdonald.xpoly import XPolynomial, reverse_alphabet
from nsmacdonald.fillings import f_hhl
from nsmacdonald.compositions import Composition, compositions_with, default_family
from nsmacdonald.lattice import _boundaries, capped_states
from nsmacdonald.matrixprod import cyclic_check, enumerate_configs, f_matrix_product


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_both_routes_agree(capsys):
    code, out, err = run(capsys, "compute", "--mu", "1,0", "--method", "both", "--output", "text")
    assert code == 0
    assert out.splitlines() == ["x1"]
    assert err.splitlines() == ["routes agree"]


def test_compute_latex(capsys):
    code, out, _err = run(capsys, "compute", "--mu", "0,1", "--method", "hhl", "--output", "latex")
    assert code == 0
    assert out.strip() == f_hhl(Composition((0, 1))).to_latex()
    assert "\\frac" in out and "x_{1}" in out and "x_{2}" in out


def test_verify_eigen_exit_zero(capsys):
    code, _out, err = run(capsys, "verify", "eigen", "--mu", "0,1")
    assert code == 0
    assert "PASS" in err


def test_verify_positional_check(capsys):
    code, _out, err = run(capsys, "verify", "frozen", "--mu", "2,0")
    assert code == 0
    assert "PASS" in err


def test_part_limit_is_checked_before_anything_runs(capsys, monkeypatch):
    at_limit = ",".join(["0"] * (cli.MAX_PARTS - 1) + ["1"])
    code, out, _err = run(capsys, "compute", "--mu", at_limit, "--method", "hhl")
    assert code == 0 and out.strip()
    monkeypatch.setattr(cli, "count_configs", lambda mu: pytest.fail("counted"))
    code, out, err = run(capsys, "verify", "eigen", "--mu", "0," + at_limit)
    assert code == 2 and out == ""
    assert err == f"error: --mu has {cli.MAX_PARTS + 1} parts; at most {cli.MAX_PARTS} are supported\n"


@pytest.mark.parametrize("check, count", [("frozen", 1), ("cyclic", 1), ("bijection", 8)])
def test_verify_a_deep_single_part(capsys, check, count):
    # one configuration with 400 columns: compared as products, Omega_mu
    # and the walk's binomials are never multiplied out
    code, _out, err = run(capsys, "verify", check, "--mu", "400")
    assert code == 0
    assert err.splitlines() == [f"[PASS] {check}: {count} checks"]


def test_json_round_trip(capsys):
    code, out, _err = run(capsys, "compute", "--mu", "0,1", "--method", "hhl", "--output", "json")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["mu", "method", "poly"]
    assert payload["mu"] == [0, 1]
    poly = XPolynomial.from_json(payload["poly"])
    assert poly == f_hhl(Composition((0, 1)))
    assert poly.to_json() == payload["poly"]


def test_convention_E(capsys):
    for method in ("hhl", "both"):
        code, out, _err = run(
            capsys, "compute", "--mu", "1,0", "--method", method, "--convention", "E",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        # the header holds the composition as given, not the reversed one
        # the E convention computes with
        assert payload["mu"] == [1, 0]
        assert payload["method"] == method
        assert payload["convention"] == "E"
        assert "rho" not in payload
        poly = XPolynomial.from_json(payload["poly"])
        assert poly == reverse_alphabet(f_hhl(Composition((0, 1))))


def test_terms_output_lists_monomials(capsys):
    for method in ("hhl", "matrix", "both"):
        code, out, _err = run(
            capsys, "compute", "--mu", "0,1", "--method", method, "--output", "terms"
        )
        assert code == 0
        # ascending graded lex: the x_2 monomial (exponents [0,1]) prints first
        assert out.splitlines() == ["x^[0, 1]  1", "x^[1, 0]  (qt - q)/(qt - 1)"]


def test_malformed_composition_is_usage_error(capsys):
    code, _out, err = run(capsys, "compute", "--mu", "1,zebra")
    assert code == 2
    assert "malformed" in err


def test_bad_rho_is_usage_error(capsys):
    code, _out, err = run(capsys, "compute", "--mu", "0,1", "--rho", "1,1", "--method", "matrix")
    assert code == 2
    assert "permutation" in err


def test_missing_mu_is_usage_error(capsys):
    code, _out, _err = run(capsys, "compute")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    code, out, err = run(capsys, "frobnicate")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_rho_compute(capsys):
    code, out, _err = run(
        capsys, "compute", "--mu", "0,1", "--rho", "2,1", "--method", "matrix", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert XPolynomial.from_json(payload["poly"]).nvars == 2


def test_rho_is_recorded_in_json_header(capsys):
    code, out, _err = run(
        capsys, "compute", "--mu", "0,1", "--rho", "2,1", "--method", "matrix", "--output", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["mu", "method", "rho", "poly"]
    assert (payload["mu"], payload["method"], payload["rho"]) == ([0, 1], "matrix", [2, 1])
    poly = XPolynomial.from_json(payload["poly"])
    assert poly == f_matrix_product(Composition((0, 1)), (2, 1))


def test_verify_cyclic_with_colour(capsys):
    code, _out, err = run(capsys, "verify", "cyclic", "--mu", "0,1", "--i", "2")
    assert code == 0
    assert "PASS" in err


def test_verify_cyclic_colour_without_mu_skips_smaller_compositions(capsys, monkeypatch):
    # the default family starts with n = 1; colour 2 runs on the members
    # that have it
    family = [Composition((1,)), Composition((0, 1))]
    monkeypatch.setattr(cli, "default_family", lambda: family)
    code, _out, err = run(capsys, "verify", "cyclic", "--i", "2")
    assert code == 0
    checked = cyclic_check(Composition((0, 1)), 2).checked
    assert err.splitlines()[0] == f"[PASS] cyclic: {checked} checks"


def test_python_dash_m_runs_the_cli():
    import nsmacdonald

    src = str(Path(nsmacdonald.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "nsmacdonald", "compute", "--mu", "0,1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr.splitlines()[-1] == "routes agree"


def test_seed_reproducibility(capsys):
    code1, _out, err1 = run(capsys, "verify", "hecke", "--n", "2", "--seed", "9", "--samples", "2")
    code2, _out2, err2 = run(capsys, "verify", "hecke", "--n", "2", "--seed", "9", "--samples", "2")
    assert code1 == code2 == 0
    assert err1 == err2


def test_integer_flags_take_a_sign_and_spaces(capsys):
    code, _out, err = run(capsys, "verify", "hecke", "--n", "2", "--seed", "-3", "--samples", "1")
    assert code == 0 and err.startswith("[PASS] hecke")
    code, _out, err = run(capsys, "verify", "cyclic", "--mu", "0,1,2", "--i", " 2 ")
    assert code == 0 and err.startswith("[PASS] cyclic: 12 checks")


@pytest.mark.parametrize(
    "argv",
    [
        "compute --mu 0,1 --rho 2,1 --method both",
        "compute --mu 0,1 --rho 2,1 --method hhl",
        "verify cyclic --mu 0,1 --i 5",
        "verify cyclic --mu 0,1 --i -1",
        "verify cyclic --mu 0,1 --i 0",
        "verify cyclic --i 5",
        "verify hecke --n 1",
        "verify hecke --n -3",
        "verify hecke --n 2 --samples 0",
        "verify hecke --mu 0,1,2 --n 2 --samples 1",
        "verify hecke --mu 0,1,2,1 --samples 1",
        "verify ybe --n 1 --cap -1",
        "verify ybe --n 0",
        "verify exchange --n 0",
        "verify frozen --mu 0,1,2 --i 2",
        "verify exchange --mu 0,1",
        "verify ybe --mu 0,1",
        "verify cyclic --mu 0,1 --n 3",
        "verify eigen --mu 0,1 --n 2",
        "verify frozen --n 2",
        "verify bijection --mu 0,1 --n 2",
        "verify hecke --mu 0,1 --i 1",
        "verify eigen --mu 0,1 --seed 3",
        "verify exchange --cap 1",
        "verify cyclic --mu 0,1 --samples 2",
        "compute --mu 990,0",
        "compute --mu 500,0",
        "compute --mu 990",
        "verify eigen --mu 21,0",
        "verify eigen --mu 0,1,2,3,4,5,6,7",
        # more parts than the filling search or the eigencheck can take
        pytest.param("compute --mu " + ",".join(["1"] * 330), id="compute-330-ones"),
        pytest.param("compute --mu " + ",".join(["0"] * 500), id="compute-500-zeros"),
        pytest.param("verify eigen --mu " + ",".join(["0"] * 400 + ["1"]), id="eigen-401-parts"),
        pytest.param("compute --mu " + ",".join(["0"] * 64 + ["1"]), id="compute-65-parts"),
        # argparse's own errors take the same one-line path
        "verify frozen --check eigen --mu 0,1",
        "verify eigen --check frozen",
        "verify bogus",
        "compute --mu 0,1 --method nope",
        "compute --mu 0,1 --output pdf",
        "compute --mu",
        "compute --mu -1,2",
        "compute",
        "verify",
        "frobnicate",
        "compute --mu 0,1 --frob",
        # int() alone reads 1_0 as 10 and takes non-ASCII digits
        "compute --mu 1_0",
        "compute --mu 0,1 --rho 0_2,1 --method matrix",
        "compute --mu \u0661,0",
        "compute --mu 0,1 --rho 2,\u0661 --method matrix",
        # the integer flags read integers by the same rule as --mu
        "verify cyclic --mu 0,1,2 --i \u0662",
        "verify cyclic --mu 0,1,2 --i 1_0",
        "verify ybe --n 1 --cap 0_0",
        "verify hecke --n \uff12 --samples 1",
        "verify cyclic --mu 0,1,2 --i abc",
        "verify hecke --n 2 --seed 1_0",
        # a value beginning with "-" is the flag's value, not an option
        "verify hecke --n 2 --seed -3,1",
        "compute --mu 0,1 --rho -2,1 --method matrix",
        "verify cyclic --mu 0,1,2 --i -1,2",
        # an option after a flag is not its value: the value is missing
        "compute --mu --method hhl",
    ],
)
def test_bad_flag_values_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        ("compute --mu -1,2", "negative part in (-1, 2)"),
        ("verify hecke --n 2 --seed -3,1", "argument --seed: malformed integer '-3,1'"),
        ("compute --mu 0,1 --rho -2,1 --method matrix", "malformed permutation string '-2,1'"),
        ("verify ybe --n 1 --cap -1,0", "argument --cap: malformed integer '-1,0'"),
    ],
)
def test_a_value_beginning_with_a_dash_is_read_as_the_flags_value(capsys, argv, message):
    # as the --flag=value form reads it; argparse alone reports the value missing
    words = argv.split()
    k = next(k for k, word in enumerate(words) if word.startswith("-") and word[1] != "-")
    attached = words[: k - 1] + [f"{words[k - 1]}={words[k]}"] + words[k + 1 :]
    for form in (words, attached):
        code, out, err = run(capsys, *form)
        assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        "verify hecke --n 9",
        "verify exchange --n 9",
        "verify ybe --cap 1000",
        "verify hecke --samples 1000000000",
        "verify ybe --n 1000000000000000000000",
        "verify exchange --n 1000000000000000000000",
        "verify hecke --n 1000000000000000000000",
        # within MAX_PARTS and MAX_CONFIGURATIONS (238328), but 6 * 10^10
        # units of eigencheck work
        pytest.param(
            "verify eigen --mu " + ",".join(["0"] * 61 + ["1"] * 3), id="eigen-61-zeros-3-ones"
        ),
    ],
)
def test_oversized_verify_sizes_are_refused_at_once(capsys, monkeypatch, argv):
    # the work is counted from the flags, so nothing runs before the
    # refusal: a check reached past the guard fails here instead of running
    def ran(*args, **kwargs):
        raise AssertionError(f"{argv} ran a check")

    for name in ("ybe_check", "ybe_check_symbolic", "exchange_check", "verify_hecke_relations",
                 "verify_eigen", "f_hhl"):
        monkeypatch.setattr(cli, name, ran)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv.split())
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "needs more than" in err


def test_verify_work_counts_what_the_checks_run():
    # each closed form against the enumeration it stands for: exchange's
    # in-states and colour pairs and hecke's basement exchanges exactly,
    # ybe's boundaries as an upper bound
    args = argparse.Namespace(cap=2, samples=1)
    for n in (2, 3, 4):
        pairs = n * n * len(capped_states(n, 2, 1))
        assert cli._work("exchange", [n], args, None) == pairs
        ascents = sum(
            rho[i] < rho[i + 1]
            for rho in itertools.permutations(range(n))
            for i in range(n - 1)
        )
        family = len(list(compositions_with(n, 2)))
        assert cli._work("hecke", [n], args, None) == family * ascents + 1
        assert cli._work("hecke", [n], args, Composition((0,) * n)) == ascents + 1
    for n, cap in [(1, 2), (2, 2), (3, 1), (2, 0)]:
        boundaries = len(_boundaries(n, cap, cap)) + len(_boundaries(1, cap, cap + 2))
        assert cli._work("ybe", [n], argparse.Namespace(cap=cap), None) >= boundaries
    # eigen: n^3 per configuration, and f_mu has at most one term per
    # configuration, the premise of that count
    for mu in [*compositions_with(3, 2), Composition((0, 1, 4, 2)), Composition((3, 0, 2, 1))]:
        configs = sum(1 for _ in enumerate_configs(mu))
        assert cli._work("eigen", None, args, mu) == configs * mu.n**3
        assert len(f_hhl(mu).terms) <= configs
    family = default_family()
    assert cli._work("eigen", None, args, None) == sum(
        cli._work("eigen", None, args, mu) for mu in family
    )
