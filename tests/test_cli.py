import contextlib
import io
import json
import sys
import time
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import UNKNOT_ROWS, spread_word, unknot_sum_rows
from trilink import cli, infection, magnus, seifert
from trilink.realization import GenusThreeParams
from trilink.seifert import reorder, standard_metabolizer, validate

UNKNOT_JSON = {"genus": 3, "ordering": "interleaved", "entries": UNKNOT_ROWS}
STANDARD_COLS = {"columns": [[0, 1, 0, 0, 0, 0], [0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 0, 1]]}


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
    monkeypatch.setattr("sys.stdin", io.StringIO("{}"))
    assert cli.main(["frobnicate"]) == 2


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


@pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
    reason="this interpreter has no int-to-string digit limit",
)
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
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(json.dumps(payload))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command])
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4)
    assert err.getvalue() == ""
    text = out.getvalue()
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


_over_limit = st.builds(_over_genus_limit,
                        st.integers(seifert.MAX_VERDICT_GENUS + 1, 48), st.integers(0, 99))
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
    top = seifert.MAX_VERDICT_GENUS
    code, out = run_json(capsys, monkeypatch, ["metabolizer"], _over_genus_limit(top, 1))
    assert code == 0 and out["independent"] is True
    start = time.perf_counter()
    code, out = run_json(capsys, monkeypatch, ["metabolizer"], _over_genus_limit(48, 1))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out["error"] == "bad-input"
    assert out["detail"] == f"genus 48 exceeds the metabolizer-test guard ({top})"
