import argparse
import contextlib
import importlib
import io
import json
import platform
import re
import shutil
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import pool_replies
from helpers import UNKNOT_ROWS, lattice_key, spread_word, unknot_sum_rows
from trilink import cli, infection, magnus, seifert
from trilink.errors import CrossCheckError
from trilink.intlinalg import transpose
from trilink.realization import GenusThreeParams
from trilink.seifert import reorder, standard_metabolizer, validate

UNKNOT_JSON = {"genus": 3, "ordering": "interleaved", "entries": UNKNOT_ROWS}
STANDARD_COLS = {"columns": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]}
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HAS_INT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() != 0


def run_cli(capsys, monkeypatch, argv, payload=None, stdin_text=None):
    if payload is not None:
        stdin_text = json.dumps(payload)
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text or ""))
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, monkeypatch, argv, payload):
    code, out = run_cli(capsys, monkeypatch, argv, payload)
    return code, json.loads(out)


def test_mu_happy_path(capsys, monkeypatch):
    code, out = run_json(
        capsys, monkeypatch, ["mu"], {"rank": 3, "longitude3": "x1 x2 x1^-1 x2^-1"}
    )
    assert code == 0
    assert out == {"mu123": 1}


def test_mu_show_series(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DEGREE_CAP, "2")
    code, out = run_json(
        capsys, monkeypatch, ["mu", "--show-series"],
        {"longitude3": "x1 x2 x1^-1 x2^-1"},
    )
    assert code == 0
    assert out["mu123"] == 1
    assert out["degree_cap"] == 2
    assert out["series"] == "1 + 1*a1 a2 - 1*a2 a1"


def test_mu_bad_env_cap(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_DEGREE_CAP, "1")
    code, out = run_json(
        capsys, monkeypatch, ["mu", "--show-series"], {"longitude3": ""}
    )
    assert code == 2
    assert out["error"] == "bad-input"


def test_mu_precondition_exit_3(capsys, monkeypatch):
    code, out = run_json(capsys, monkeypatch, ["mu"], {"longitude3": "x1"})
    assert code == 3
    assert out == {"error": "precondition", "detail": "nonzero exponent sum for generator 1"}


def test_mu_malformed_word_exit_2(capsys, monkeypatch):
    code, out = run_json(capsys, monkeypatch, ["mu"], {"longitude3": "x9"})
    assert code == 2
    assert out["error"] == "bad-input"


def test_invalid_json_exit_2(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["mu"], stdin_text="{not json")
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


def test_non_object_payload_exit_2(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["mu"], stdin_text="[1, 2]")
    assert code == 2


def test_unknown_subcommand_exit_2(capsys, monkeypatch):
    code, out = run_json(capsys, monkeypatch, ["frobnicate"], {})
    assert code == 2 and out["error"] == "bad-input"
    assert "invalid choice: 'frobnicate'" in out["detail"]
    assert all(repr(name) in out["detail"] for name in cli._HANDLERS)


def test_missing_field_exit_2(capsys, monkeypatch):
    code, out = run_json(capsys, monkeypatch, ["mu"], {})
    assert code == 2
    assert "longitude3" in out["detail"]


def test_depth(capsys, monkeypatch):
    payload = {"rank": 3, "word": "x1 x2 x1^-1 x2^-1", "kmax": 3}
    code, out = run_json(capsys, monkeypatch, ["depth"], payload)
    assert code == 0 and out == {"depth": 2}


def test_class(capsys, monkeypatch):
    code, out = run_json(capsys, monkeypatch, ["class"], {"word": "x2 x3 x2^-1 x3^-1"})
    assert code == 0
    assert out == {"class": [0, 0, 1], "mu123": 0}


def test_generator_unknot(capsys, monkeypatch):
    payload = {"matrix": UNKNOT_JSON, "metabolizer": STANDARD_COLS}
    code, out = run_json(capsys, monkeypatch, ["generator", "--seed", "11"], payload)
    assert code == 0
    assert out["generator"] == 1
    assert out["signed"] == -1
    assert out["self_check"] == {"seed": 11, "completions_agree": True}


def test_generator_self_check_completes_another_seeded_basis(capsys, monkeypatch):
    # each completion of a request hands its V to _generator_at: the given basis's
    # first, then the second basis's
    completed = []
    real = seifert._generator_at

    def recording(m, vmat, mv):
        completed.append(tuple(map(tuple, transpose(vmat))))
        return real(m, vmat, mv)

    monkeypatch.setattr(seifert, "_generator_at", recording)
    payload = {"matrix": UNKNOT_JSON, "metabolizer": STANDARD_COLS}
    for seed in (0, 1, 0):
        code, out = run_json(capsys, monkeypatch, ["generator", "--seed", str(seed)], payload)
        assert code == 0 and out["self_check"] == {"seed": seed, "completions_agree": True}
    given_bases, checked = completed[::2], completed[1::2]
    assert given_bases == [tuple(map(tuple, STANDARD_COLS["columns"]))] * 3
    assert checked[0] == checked[2]  # the seed fixes the second basis
    for columns in checked:
        assert columns != given_bases[0]
        assert lattice_key(columns) == lattice_key(given_bases[0])


def test_generator_self_check_compares_the_signed_value(capsys, monkeypatch):
    real = seifert.generator_on_two_bases

    def flipping(m, v, order):  # the second basis's result: same magnitude, opposite sign
        first, again = real(m, v, order)
        return first, seifert.GeneratorResult(again.generator, -again.signed)

    monkeypatch.setattr(seifert, "generator_on_two_bases", flipping)
    payload = {"matrix": UNKNOT_JSON, "metabolizer": STANDARD_COLS}
    code, out = run_json(capsys, monkeypatch, ["generator"], payload)
    assert code == 4
    assert out == {"error": "internal-check", "detail": "completions disagree: -1 vs 1"}


def test_generator_request_runs_one_verdict_and_two_hermite_forms(capsys, monkeypatch):
    # the second basis shares the given basis's products and verdict, and takes its
    # own Hermite form of [V | I]; a refused basis reaches no Hermite form
    calls = []

    def counting(name, fn):
        def wrapper(*args):
            calls.append(name if name != "row_hnf" else (len(args[0]), len(args[0][0])))
            return fn(*args)
        return wrapper

    for name in ("_verdict_and_products", "_plucker", "row_hnf"):
        monkeypatch.setattr(seifert, name, counting(name, getattr(seifert, name)))
    payload = {"matrix": UNKNOT_JSON, "metabolizer": STANDARD_COLS}
    code, out = run_json(capsys, monkeypatch, ["generator", "--seed", "5"], payload)
    assert code == 0 and out["signed"] == -1
    assert Counter(calls) == {"_verdict_and_products": 1, "_plucker": 1, (6, 9): 2}
    del calls[:]
    refused = {"columns": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 2]]}  # index 2
    code, out = run_json(capsys, monkeypatch, ["generator"],
                         {"matrix": UNKNOT_JSON, "metabolizer": refused})
    assert code == 3 and out["detail"] == "not a metabolizer; completion refused"
    assert calls == ["_verdict_and_products", "_plucker"]


def test_a_verdict_that_accepts_an_index_two_basis_fails_the_hermite_cross_check(
        capsys, monkeypatch):
    # a minors read that loses a factor 2 takes b1, b2, 2 b3 for primitive; the
    # completion's Hermite form of [V | I] reads V by a second route and catches it
    real = seifert._plucker
    monkeypatch.setattr(seifert, "_plucker", lambda columns: [x // 2 for x in real(columns)])
    cols = [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 2]]
    m, v = validate(UNKNOT_ROWS, "interleaved"), seifert.MetabolizerBasis(cols)
    assert seifert.metabolizer_verdict(m, v).is_metabolizer
    detail = "Hermite form of [V | I] disagrees with the metabolizer verdict"
    for run in (seifert.symplectic_complete, seifert.generator_for_metabolizer):
        with pytest.raises(CrossCheckError, match=re.escape(detail)):
            run(m, v)
    payload = {"matrix": UNKNOT_JSON, "metabolizer": {"columns": cols}}
    code, out = run_json(capsys, monkeypatch, ["generator"], payload)
    assert (code, out) == (4, {"error": "internal-check", "detail": detail})


def test_generator_non_metabolizer_exit_3(capsys, monkeypatch):
    bad = {"columns": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]]}
    payload = {"matrix": UNKNOT_JSON, "metabolizer": bad}
    code, out = run_json(capsys, monkeypatch, ["generator"], payload)
    assert code == 3
    assert out["error"] == "precondition"


def test_generator_genus_mismatch_exit_2(capsys, monkeypatch):
    bad_matrix = dict(UNKNOT_JSON, genus=2)
    payload = {"matrix": bad_matrix, "metabolizer": STANDARD_COLS}
    code, out = run_json(capsys, monkeypatch, ["generator"], payload)
    assert code == 2


def test_metabolizer_check(capsys, monkeypatch):
    payload = {"matrix": UNKNOT_JSON, "metabolizer": STANDARD_COLS}
    code, out = run_json(capsys, monkeypatch, ["metabolizer"], payload)
    assert code == 0
    assert out == {
        "is_metabolizer": True,
        "form_vanishes": True,
        "primitive": True,
        "independent": True,
    }


@pytest.mark.parametrize(
    "cols, verdict",
    [
        ([[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 2]], (False, True, False, True)),
        ([[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 1, 0, 0]], (False, True, False, False)),
        ([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0]], (False, False, True, True)),
    ],
    ids=["index-2", "dependent", "form-fails"],
)
def test_metabolizer_verdicts(capsys, monkeypatch, cols, verdict):
    payload = {"matrix": UNKNOT_JSON, "metabolizer": {"columns": cols}}
    code, out = run_cli(capsys, monkeypatch, ["metabolizer"], payload)
    assert code == 0
    keys = ("is_metabolizer", "form_vanishes", "primitive", "independent")
    assert out == json.dumps(dict(zip(keys, verdict))) + "\n"


def test_enumerate(capsys, monkeypatch):
    payload = {"matrix": {"ordering": "interleaved", "entries": [[0, 1], [0, 0]]}, "bound": 1}
    code, out = run_json(capsys, monkeypatch, ["enumerate"], payload)
    assert code == 0
    assert out["count"] == len(out["metabolizers"]) >= 2
    assert {"columns": [[0, 1]]} in out["metabolizers"]
    # the box limit holds whatever else the payload says; bound_cap is not read
    payload = {"matrix": UNKNOT_JSON, "bound": 3, "bound_cap": 10}
    code, out = run_json(capsys, monkeypatch, ["enumerate"], payload)
    assert code == 2 and "above cap" in out["detail"]


def test_infect_profile_route(capsys, monkeypatch):
    payload = {"mu_J": 2, "N": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "mu_L": -5}
    code, out = run_json(capsys, monkeypatch, ["infect"], payload)
    assert code == 0
    assert out == {"mu": 7, "route": "profile"}


def test_infect_band_sum_route(capsys, monkeypatch):
    payload = {
        "mu_J": 3,
        "alpha": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "beta": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "mu_L": 4,
    }
    code, out = run_json(capsys, monkeypatch, ["infect"], payload)
    assert code == 0
    assert out == {"mu": 7, "route": "band-sum", "cross_checked": True}


def test_infect_internal_check_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(infection, "band_sum_expansion", lambda *args: 10**9)
    payload = {
        "mu_J": 1,
        "alpha": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        "beta": [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        "mu_L": 0,
    }
    code, out = run_json(capsys, monkeypatch, ["infect"], payload)
    assert code == 4
    assert out["error"] == "internal-check"


def test_genus_one(capsys, monkeypatch):
    code, out = run_json(capsys, monkeypatch, ["genus-one"], {"d": 2, "e": 1})
    assert code == 0
    assert out["n"] == 1 and out["x"] == 1 and out["y"] == -2
    assert (out["z"], out["w"]) == (0, -1)
    assert out["normalized_e"] == 1
    assert out["new_matrix"]["entries"] == [[0, 0], [-1, 0]]


def test_ledger(capsys, monkeypatch):
    params = {"a": 2, "b": 3, "c": 4, "x1": 5, "x2": 6, "y1": 7, "y2": 8, "z1": 9, "z2": 10}
    code, out = run_json(capsys, monkeypatch, ["ledger"], {"params": params, "n": 2})
    assert code == 0
    assert out["total"] == 316
    assert out["description"]["parallel_copies"] == 2
    assert ["band1_pair1_vs_3", -3] in out["pushoff_entries"]


def test_big_integers_as_strings(capsys, monkeypatch):
    big = 10**20
    params = {"a": str(big), "b": big, "c": 1, "x1": 0, "x2": 0,
              "y1": 0, "y2": 0, "z1": 0, "z2": 0}
    code, out = run_json(capsys, monkeypatch, ["ledger"], {"params": params, "n": 1})
    assert code == 0
    # (a-1)(b-1)(c-1) - ab = -(big - 1) - ... recompute exactly:
    expected = (big - 1) * (big - 1) * 0 - big * big * 1
    assert int(out["total"]) == expected
    assert isinstance(out["total"], str)  # exceeds 2**53, so serialized as text


@pytest.mark.skipif(not HAS_INT_LIMIT, reason="this interpreter has no int-to-string digit limit")
@pytest.mark.parametrize("mode", ["json", "text"])
def test_output_past_int_str_limit_is_bad_input(capsys, monkeypatch, mode):
    # products of 3000-digit parameters exceed the 4300-digit int->str limit
    names = ("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2")
    payload = {"params": {name: "9" * 3000 for name in names}, "n": 1}
    code, out = run_cli(capsys, monkeypatch, ["ledger", "--output", mode], payload)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "bad-input"


BIG = cli.BIG


@pytest.mark.parametrize("value, encoded", [
    (BIG - 1, BIG - 1), (-(BIG - 1), -(BIG - 1)), (BIG, str(BIG)), (-BIG, str(-BIG)),
    (10**15, 10**15), (10**16, str(10**16)),
])
def test_render_quotes_exactly_the_integers_past_2_53(value, encoded):
    result = {"n": value, "rows": [[1, value], (value, True)], "s": "x"}
    text = cli._render(result, "json")
    assert text == json.dumps(cli._encode(result))
    assert json.loads(text) == {"n": encoded, "rows": [[1, encoded], [encoded, True]], "s": "x"}


@pytest.mark.parametrize("result", [
    {"series": "1 + 9007199254740992*a1 a2", "mu123": 1},
    {"word": "x1" * 3, "id": "1234567890123456", "n": 7},
    {"detail": "12345678901234567890", "n": [BIG - 1, -BIG]},
])
def test_render_digit_runs_inside_strings_give_the_same_bytes(result):
    assert cli._render(result, "json") == json.dumps(cli._encode(result))


def test_render_without_a_16_digit_run_skips_the_walk(monkeypatch):
    monkeypatch.setattr(cli, "_encode", lambda obj: pytest.fail("walked the reply"))
    result = {"count": 2, "n": [10**15 - 1, -(10**15 - 1)], "ok": True, "s": "123456789012345"}
    assert cli._render(result, "json") == json.dumps(result)


def test_render_text_output_encodes_as_before():
    result = {"n": BIG, "rows": [[1, BIG], [2, -3]], "s": "a b", "ok": False}
    assert cli._render(result, "text") == (
        f'n: {BIG}\nrows: [[1, "{BIG}"], [2, -3]]\ns: a b\nok: False')


@pytest.mark.skipif(not HAS_INT_LIMIT, reason="this interpreter has no int-to-string digit limit")
def test_render_past_int_str_limit_raises_the_encode_error():
    result = {"n": 1, "rows": [[10**5000]]}
    with pytest.raises(ValueError) as fast:
        cli._render(result, "json")
    with pytest.raises(ValueError) as walked:
        json.dumps(cli._encode(result))
    assert str(fast.value) == str(walked.value)
    # products of 3,000-digit ledger parameters give the CLI that detail
    params = {name: "9" * 3000 for name in ("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2")}
    code, out, err = _served(["ledger"], json.dumps({"params": params, "n": 1}))
    assert (code, json.loads(out), err) == (2, {"error": "bad-input", "detail": str(walked.value)},
                                            "")


def test_render_matches_the_encode_walk_on_the_benchmark_pools(monkeypatch):
    # every reply of the four perfbench pools at seeds 1-3, replayed once for
    # two checks: each rendered reply equals the encode walk's, and each
    # reply's fingerprint equals the one frozen in tests/data/pool_replies.txt
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    render, rendered = cli._render, []

    def checked(result, mode):
        text = render(result, mode)
        assert text == json.dumps(cli._encode(result))
        rendered.append(text)
        return text

    monkeypatch.setattr(cli, "_render", checked)
    replies = pool_replies.lines(workloads)
    assert len(replies) == 894
    assert len(rendered) > 800  # the rest exit before a reply is rendered
    frozen = pool_replies.OUT.read_text(encoding="utf-8").splitlines()
    changed = sorted(set(replies) ^ set(frozen))
    assert replies == frozen, (
        f"replies differ from {pool_replies.OUT.name} on Python {platform.python_version()} "
        f"(frozen on 3.11.7); {len(changed)} lines in only one of them: {changed[:6]}")


@pytest.mark.parametrize("text", [" +5 ", "1_000", "\u0661\u0662"])
def test_integer_strings_must_be_ascii_decimal(capsys, monkeypatch, text):
    code, out = run_json(capsys, monkeypatch, ["genus-one"], {"d": text, "e": 1})
    assert code == 2
    assert out["error"] == "bad-input"


def test_negative_decimal_string_accepted(capsys, monkeypatch):
    code, out = run_json(capsys, monkeypatch, ["genus-one"], {"d": "-2", "e": "1"})
    assert code == 0
    assert out["n"] == 1


def test_input_file_and_text_output(tmp_path, capsys, monkeypatch):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"longitude3": "x1 x2 x1^-1 x2^-1"}))
    monkeypatch.setattr("sys.stdin", io.StringIO(""))
    code = cli.main(["mu", "--input", str(path), "--output", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "mu123: 1"


def test_missing_input_file_exit_2(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["mu", "--input", "/nonexistent/x.json"],
                        stdin_text="")
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


def test_output_roundtrips_and_is_deterministic(capsys, monkeypatch):
    payload = {"matrix": UNKNOT_JSON, "metabolizer": STANDARD_COLS}
    code1, out1 = run_cli(capsys, monkeypatch, ["generator", "--seed", "5"], payload)
    code2, out2 = run_cli(capsys, monkeypatch, ["generator", "--seed", "5"], payload)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)  # parses under the published schema


@pytest.mark.parametrize(
    "argv", [["nope"], ["mu", "--seed", "abc"], ["mu", "--bogus"], []],
    ids=["unknown-subcommand", "bad-seed", "unknown-option", "no-subcommand"],
)
def test_bad_argv_emits_one_error_object(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ""
    assert captured.out.count("\n") == 1
    assert json.loads(captured.out)["error"] == "bad-input"


def test_help_prints_usage(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: trilink")


def _served(argv, stdin_text="{}") -> tuple[int, str, str]:
    """Exit code, stdout and stderr of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _full_build() -> argparse.ArgumentParser:
    """The trilink parser with all nine subparsers, written out apart from cli."""
    parser = cli._Parser(
        prog="trilink",
        description="Exact computations for triple linking numbers of derivative links.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name in cli._HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--input", default=None, help="JSON input file (default: stdin)")
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.add_argument("--seed", type=int, default=0, help="seed for self-checks")
        if name == "mu":
            p.add_argument(
                "--show-series",
                action="store_true",
                help=f"include the Magnus series (cap from ${cli.ENV_DEGREE_CAP}, default "
                f"{magnus.DEFAULT_DEGREE_CAP})",
            )
    return parser


def _served_by_full_build(full, argv) -> tuple[int, str, str]:
    """_served(argv), with every argv parsed whole by the parser full."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_full_parser", lambda: full)
        mp.setattr(cli, "_command_parser", lambda name: SimpleNamespace(
            parse_args=lambda rest: full.parse_args([name, *rest])))
        return _served(argv)


def test_parser_builds_only_the_named_subcommand(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for name in cli._HANDLERS:
        built.clear()
        _served([name, "--seed", "1"])
        assert built == [f"trilink {name}"]
    for argv in ([], ["--help"], ["-h"], ["bogus"], ["--seed", "1", "mu"], ["Enumerate"]):
        built.clear()
        _served(argv)
        assert built == ["trilink"] + [f"trilink {name}" for name in cli._HANDLERS]


@pytest.fixture(scope="module")
def full_build():
    return _full_build()


@pytest.mark.parametrize("argv", [[name, "--help"] for name in cli._HANDLERS] + [
    ["--help"], [], ["bogus"], ["--seed", "1", "mu"], ["mu", "--seed", "abc"],
    ["mu", "--bogus"], ["class", "--output", "xml"], ["enumerate", "depth"],
    ["genus-one", "--input"],
], ids=lambda argv: " ".join(argv) or "no-argv")
def test_per_command_parser_matches_a_full_build(full_build, argv):
    assert _served(argv) == _served_by_full_build(full_build, argv)


_ARGV_TOKENS = [
    "Mu", "bogus", "--seed=3", "--seed", "3", "-1", "abc", "--s", "--se", "--in", "--input",
    "--input=", "--output=text", "--output", "text", "xml", "--show-series", "--show", "--",
    "-", "-h", "-hh", "--help", "--he", "-x", "",
]


def test_random_argv_matches_a_full_build(full_build):
    rng = Random(12)
    names = list(cli._HANDLERS)
    for _ in range(3000):
        argv = rng.choices(_ARGV_TOKENS + names, k=rng.randint(0, 5))
        if argv and rng.random() < 0.7:
            argv[0] = rng.choice(names)
        assert _served(argv) == _served_by_full_build(full_build, argv), argv


_HELP_ARGV = [[name, "--help"] for name in cli._HANDLERS] + [
    ["--help"], [], ["bogus"], ["mu", "--bogus"], ["class", "--output", "xml"], ["-h"],
]


def test_help_width_is_read_once_per_process(monkeypatch):
    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    cli._help_width.cache_clear()
    try:
        for _ in range(3):
            for argv in _HELP_ARGV + [["mu"], ["enumerate", "--seed", "2"]]:
                _served(argv)
    finally:
        cli._help_width.cache_clear()
    assert len(calls) == 1


@pytest.mark.parametrize("columns", ["24", "60", "80", "200"])
def test_help_and_errors_match_stock_argparse(monkeypatch, columns):
    # argparse reads the width from COLUMNS on every formatter; the CLI once
    monkeypatch.setenv("COLUMNS", columns)
    cli._help_width.cache_clear()
    try:
        ours = [_served(argv) for argv in _HELP_ARGV]
    finally:
        cli._help_width.cache_clear()
    monkeypatch.setattr(cli, "_Formatter", argparse.HelpFormatter)
    assert ours == [_served(argv) for argv in _HELP_ARGV]


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr("sys.argv", ["trilink", "enumerate"])
    payload = {"matrix": {"genus": 1, "ordering": "interleaved", "entries": [[0, 1], [0, 0]]},
               "bound": 1}
    code, out = run_json(capsys, monkeypatch, None, payload)
    assert code == 0 and out["count"] == 2


def test_degree_ceiling_exit_2(capsys, monkeypatch):
    top = magnus.MAX_DEGREE_CAP
    payload = {"rank": 3, "word": "", "kmax": top}
    assert run_json(capsys, monkeypatch, ["depth"], payload) == (0, {"depth": top})
    code, out = run_json(capsys, monkeypatch, ["depth"], dict(payload, kmax=top + 1))
    assert code == 2 and out["error"] == "bad-input"
    code, out = run_json(capsys, monkeypatch, ["depth"], dict(payload, kmax=100000000))
    assert code == 2 and out["error"] == "bad-input"
    monkeypatch.setenv(cli.ENV_DEGREE_CAP, str(top + 1))
    code, out = run_json(capsys, monkeypatch, ["mu", "--show-series"], {"longitude3": ""})
    assert code == 2 and out["error"] == "bad-input"


@pytest.mark.parametrize("argv, payload", [
    (["class"], {"word": 5}),
    (["mu"], {"longitude3": ["x1"]}),
    (["depth"], {"rank": 3, "word": None, "kmax": 2}),
])
def test_non_string_word_exit_2(capsys, monkeypatch, argv, payload):
    code, out = run_json(capsys, monkeypatch, argv, payload)
    assert code == 2 and out["error"] == "bad-input"


def test_deeply_nested_json_exit_2(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, ["mu"], stdin_text="[" * 100000 + "]" * 100000)
    assert code == 2
    assert json.loads(out)["error"] == "bad-input"


_LETTERS = ["x1", "x2", "x3", "x1^-1", "x2^-1", "x3^-1"]


def _inverse_text(tokens):
    return [t[:-3] if t.endswith("^-1") else t + "^-1" for t in reversed(tokens)]


_letter_lists = st.lists(st.sampled_from(_LETTERS), max_size=6)
_words = st.one_of(
    st.lists(st.sampled_from(_LETTERS + ["x4", "x0", "y1", "x1^2", "x12"]), max_size=12),
    # commutators [u, v], so that mu and class get past their preconditions
    st.tuples(_letter_lists, _letter_lists).map(
        lambda uv: uv[0] + uv[1] + _inverse_text(uv[0]) + _inverse_text(uv[1])),
).map(" ".join)
_ints = st.one_of(st.integers(-2, 10), st.integers(), st.integers(-2, 10).map(str))
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=6), _ints),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6,
)
# repeated branches weight the draw toward requests that reach the computation
_fields = {
    "rank": st.just(3) | st.just(3) | _ints | _json,
    "word": _words | _words | _json,
    "longitude3": _words | _words | _json,
    "kmax": st.integers(1, 8) | _ints | _json,
}
_payloads = st.one_of(
    st.fixed_dictionaries(_fields),
    st.fixed_dictionaries({}, optional=_fields),
    _json,
)


def _assert_one_reply(command, payload):
    code, text, err = _served([command], json.dumps(payload))
    assert code in (0, 2, 3, 4)
    assert err == ""
    assert text.count("\n") == 1 and text.endswith("\n")
    assert isinstance(json.loads(text), dict)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["mu", "class", "depth"]), payload=_payloads)
def test_word_commands_fuzz(command, payload):
    _assert_one_reply(command, payload)


_small = st.integers(-4, 4)
_big = st.sampled_from([2**70, -(2**70), 10**40])
_entry = _small | _small | _big


@st.composite
def _matrix_and_columns(draw):
    """A valid matrix and metabolizer, then perhaps one defect in either."""
    genus = draw(st.sampled_from([1, 2, 3, 3]))
    if genus == 3:
        params = GenusThreeParams(*draw(st.lists(_entry, min_size=9, max_size=9)))
        m = params.seifert_matrix(tuple(draw(st.lists(_small, min_size=6, max_size=6))))
        if draw(st.booleans()):
            m = reorder(m, "blocked")
    else:  # connected sum of genus-one summands [[d, e], [e - 1, 0]]
        rows = [[0] * 2 * genus for _ in range(2 * genus)]
        for k in range(genus):
            d, e = draw(_entry), draw(_entry)
            rows[2 * k][2 * k:2 * k + 2] = [d, e]
            rows[2 * k + 1][2 * k] = e - 1
        m = validate(rows, "interleaved")
    entries = [list(r) for r in m.entries]
    cols = [list(c) for c in standard_metabolizer(m).columns]
    defect = draw(st.sampled_from(["none", "none", "short-row", "missing-row", "short-column",
                                   "long-column", "dependent", "doubled", "missing-column",
                                   "a-curve", "string-entry", "genus"]))
    matrix = {"ordering": m.ordering, "entries": entries}
    if defect == "short-row":
        entries[-1].pop()
    elif defect == "missing-row":
        entries.pop()
    elif defect == "short-column":
        cols[0].pop()
    elif defect == "long-column":
        cols[-1].append(0)
    elif defect == "dependent":
        cols[-1] = list(cols[0])
    elif defect == "doubled":
        cols[-1] = [2 * x for x in cols[-1]]
    elif defect == "missing-column":
        cols.pop()
    elif defect == "a-curve":  # the form no longer vanishes
        cols[0] = [1 if x == 0 and i == 0 else x for i, x in enumerate(cols[0])]
    elif defect == "string-entry":
        entries[0][0] = str(entries[0][0])
    elif defect == "genus":
        matrix["genus"] = m.genus + 1
    return matrix, {"columns": cols}


_PARAM_NAMES = ("a", "b", "c", "x1", "x2", "y1", "y2", "z1", "z2")
_ledger_params = (st.fixed_dictionaries({k: _entry for k in _PARAM_NAMES})
                  | st.fixed_dictionaries({}, optional={k: _entry | _ints for k in _PARAM_NAMES}))
_grid3 = st.lists(st.lists(_entry, min_size=3, max_size=3), min_size=3, max_size=3)
_grid = _grid3 | st.lists(st.lists(_entry, min_size=2, max_size=4), min_size=2, max_size=4)
_counts = st.lists(st.lists(st.integers(-1, 5), min_size=3, max_size=3), min_size=3, max_size=3)
# no bound 2: at genus 3 that is the one box under the limit that takes seconds
_bounds = st.sampled_from([1, 1, "1", 3, 4, 5, 62, -1, 0, 6, 63, 2**64, "1" + "0" * 30,
                           None, 1.5, True, "x", [1]])

_matrix_requests = _matrix_and_columns().map(lambda mc: {"matrix": mc[0], "metabolizer": mc[1]})


def _over_genus_limit(genus, seed):
    """A sum of genus copies of [[0, 1], [0, 0]] with dense columns in [-9, 9]."""
    rng = Random(seed)
    cols = [[rng.randint(-9, 9) for _ in range(2 * genus)] for _ in range(genus)]
    return {"matrix": {"ordering": "interleaved", "entries": unknot_sum_rows(genus)},
            "metabolizer": {"columns": cols}}


_over_limit = st.builds(_over_genus_limit, st.integers(seifert.MAX_GENUS + 1, 48),
                        st.integers(0, 99))
# as above, the repeated branch weights the draw toward requests that reach the computation
_SEIFERT_PAYLOADS = {
    "generator": _matrix_requests | _matrix_requests | _json,
    "metabolizer": _matrix_requests | _matrix_requests | _json | _over_limit,
    "enumerate": st.tuples(_matrix_and_columns(), _bounds).map(
        lambda mb: {"matrix": mb[0][0], "bound": mb[1]}),
    "infect": st.fixed_dictionaries(
        {"mu_J": _entry, "mu_L": _entry | _json},
        optional={"N": _grid | _json, "alpha": _counts | _grid, "beta": _counts}),
    "genus-one": st.fixed_dictionaries({}, optional={"d": _entry | _ints, "e": _entry | _json}),
    "ledger": st.fixed_dictionaries({"params": _ledger_params | _json, "n": _entry | _json}),
}


@pytest.mark.parametrize("command", list(_SEIFERT_PAYLOADS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_seifert_commands_fuzz(command, data):
    _assert_one_reply(command, data.draw(_SEIFERT_PAYLOADS[command]))


def test_depth_generator_limit_exit_2(capsys, monkeypatch):
    for kmax in (1, 2, 3, 8):
        payload = {"rank": 200, "word": str(spread_word(200)), "kmax": kmax}
        assert run_json(capsys, monkeypatch, ["depth"], payload) == (0, {"depth": min(2, kmax)})
    payload = {"rank": 4000, "word": str(spread_word(4000)), "kmax": 3}
    start = time.perf_counter()
    code, out = run_json(capsys, monkeypatch, ["depth"], payload)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and "MAX_DEPTH_TERMS" in out["detail"]


def test_series_work_limit_exit_2(capsys, monkeypatch):
    core = "x1 x2 x1^-1 x2^-1 x3 x2 x1 x2^-1 x1^-1 x3^-1"  # [[x1, x2], x3]
    monkeypatch.setenv(cli.ENV_DEGREE_CAP, str(magnus.MAX_DEGREE_CAP))
    payload = {"longitude3": " ".join([core] * 512)}  # 5,120 letters * 3,280 updates
    start = time.perf_counter()
    code, out = run_json(capsys, monkeypatch, ["mu", "--show-series"], payload)
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out["error"] == "bad-input"
    assert out["detail"] == (
        "degrees up to 8 of a word with 3 distinct generators take 16793600 "
        f"slot updates, above MAX_DEPTH_WORK = {magnus.MAX_DEPTH_WORK}")
    conjugator = " ".join(f"x{i}" for i in range(4, 41))
    inverse = " ".join(f"x{i}^-1" for i in range(40, 3, -1))
    word = " ".join([conjugator] + [core] * 991 + [inverse])  # 9,984 letters * (41 + 1,641)
    code, out = run_json(capsys, monkeypatch, ["depth"], {"rank": 40, "word": word, "kmax": 4})
    assert code == 2 and "degrees up to 3 " in out["detail"] and "MAX_DEPTH_WORK" in out["detail"]


def test_metabolizer_genus_limit_exit_2(capsys, monkeypatch):
    top = seifert.MAX_GENUS
    code, out = run_json(capsys, monkeypatch, ["metabolizer"], _over_genus_limit(top, 1))
    assert code == 0 and out["independent"] is True
    for genus in (top + 1, 48):
        start = time.perf_counter()
        code, out = run_json(capsys, monkeypatch, ["metabolizer"], _over_genus_limit(genus, 1))
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out["error"] == "bad-input"
        assert out["detail"] == f"genus {genus} exceeds the metabolizer-test guard ({top})"
