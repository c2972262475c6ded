"""Batch JSON command line exposing every computation in the package.

One subcommand per operation family; each reads a single JSON object
(stdin by default, or --input FILE), writes a single JSON object to
stdout, and exits with

    0  success
    2  malformed input (including schema problems), error object emitted
    3  a mathematical precondition of the requested operation fails
    4  an internal cross-check failed (defect signal, not user error)

Integers of magnitude >= 2**53 are emitted as decimal strings so that
results survive double-precision JSON consumers; string-encoded
integers are accepted anywhere an integer is expected.  Randomized
self-checks are seeded (--seed) and the seed is echoed in the output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import infection, magnus, nilpotent, realization, seifert
from .errors import CrossCheckError, PreconditionError
from .words import parse_word

BIG = 2**53
_DIGITS_TO_NINES = str.maketrans("012345678", "9" * 9)
ENV_DEGREE_CAP = "TRILINK_DEGREE_CAP"


def _encode(obj):
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= BIG else obj
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    return obj


def _as_int(value, what: str) -> int:
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if not re.fullmatch(r"-?[0-9]+", value):
            raise ValueError(f"{what} is not a decimal integer: {value!r}")
        return int(value)
    raise ValueError(f"{what} must be an integer (or a decimal string)")


def _require(payload: dict, key: str):
    if key not in payload:
        raise ValueError(f"missing field {key!r}")
    return payload[key]


def _word(payload: dict, key: str, rank: int):
    text = _require(payload, key)
    if not isinstance(text, str):
        raise ValueError(f"{key} must be a string of x<k> / x<k>^-1 tokens")
    return parse_word(text, rank)


def _int_matrix(raw, what: str) -> list[list[int]]:
    if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
        raise ValueError(f"{what} must be a list of rows")
    return [[_as_int(x, f"{what} entry") for x in row] for row in raw]


def _parse_matrix(raw) -> seifert.SeifertMatrix:
    if not isinstance(raw, dict):
        raise ValueError("matrix must be an object with genus/ordering/entries")
    entries = _int_matrix(_require(raw, "entries"), "matrix")
    ordering = _require(raw, "ordering")
    m = seifert.validate(entries, ordering)
    if "genus" in raw and _as_int(raw["genus"], "genus") != m.genus:
        raise ValueError(f"declared genus {raw['genus']} but entries give {m.genus}")
    return m


def _record_json(record) -> dict:
    """A record's fields by name, in order."""
    return {name: getattr(record, name) for name in record.__slots__}


def _parse_metabolizer(raw) -> seifert.MetabolizerBasis:
    if not isinstance(raw, dict):
        raise ValueError("metabolizer must be an object with a 'columns' field")
    return seifert.MetabolizerBasis(_int_matrix(_require(raw, "columns"), "metabolizer column"))


def _degree_cap_from_env() -> int:
    raw = os.environ.get(ENV_DEGREE_CAP, str(magnus.DEFAULT_DEGREE_CAP))
    cap = _as_int(raw, ENV_DEGREE_CAP)
    if cap < 2:
        raise ValueError(f"{ENV_DEGREE_CAP} must be >= 2, got {cap}")
    if cap > magnus.MAX_DEGREE_CAP:
        raise ValueError(f"{ENV_DEGREE_CAP} must be <= {magnus.MAX_DEGREE_CAP}, got {cap}")
    return cap


def cmd_mu(payload: dict, args) -> dict:
    rank = _as_int(payload.get("rank", 3), "rank")
    if rank != 3:
        raise ValueError(f"mu requires rank 3, got {rank}")
    word = _word(payload, "longitude3", 3)
    out = {"mu123": magnus.mu123(word)}
    if args.show_series:
        cap = _degree_cap_from_env()
        out["series"] = magnus.phi(word, cap).to_text()
        out["degree_cap"] = cap
    return out


def cmd_depth(payload: dict, args) -> dict:
    rank = _as_int(_require(payload, "rank"), "rank")
    kmax = _as_int(_require(payload, "kmax"), "kmax")
    if kmax > magnus.MAX_DEGREE_CAP:
        raise ValueError(f"kmax must be <= {magnus.MAX_DEGREE_CAP}, got {kmax}")
    word = _word(payload, "word", rank)
    return {"depth": magnus.lcs_depth(word, kmax)}


def cmd_class(payload: dict, args) -> dict:
    word = _word(payload, "word", 3)
    cls = nilpotent.class_of(word)
    return {"class": cls, "mu123": cls.n1}


def cmd_generator(payload: dict, args) -> dict:
    from random import Random  # the one subcommand that draws random numbers

    m = _parse_matrix(_require(payload, "matrix"))
    v = _parse_metabolizer(_require(payload, "metabolizer"))
    result = seifert.generator_for_metabolizer(m, v)
    # another basis of the same metabolizer, never v's own: its columns are independent
    cols = list(v.columns)
    Random(args.seed).shuffle(cols)
    cols[0] = [-x for x in cols[0]]
    again = seifert.generator_for_metabolizer(m, seifert.MetabolizerBasis(cols))
    if again != result:
        raise CrossCheckError(f"completions disagree: {result.signed} vs {again.signed}")
    return {
        "generator": result.generator,
        "signed": result.signed,
        "meaning": result.meaning,
        "self_check": {"seed": args.seed, "completions_agree": True},
    }


def cmd_metabolizer(payload: dict, args) -> dict:
    m = _parse_matrix(_require(payload, "matrix"))
    v = _parse_metabolizer(_require(payload, "metabolizer"))
    verdict = seifert.metabolizer_verdict(m, v)
    return {
        "is_metabolizer": verdict.is_metabolizer,
        "form_vanishes": verdict.form_vanishes,
        "primitive": verdict.primitive,
        "independent": verdict.independent,
    }


def cmd_enumerate(payload: dict, args) -> dict:
    m = _parse_matrix(_require(payload, "matrix"))
    bound = _as_int(_require(payload, "bound"), "bound")
    results = seifert.enumerate_metabolizers(m, bound)
    return {
        "count": len(results),
        "metabolizers": [_record_json(v) for v in results],
    }


def cmd_infect(payload: dict, args) -> dict:
    mu_j = _as_int(_require(payload, "mu_J"), "mu_J")
    mu_l = _as_int(_require(payload, "mu_L"), "mu_L")
    if "N" in payload:
        profile = infection.IntersectionProfile(_int_matrix(payload["N"], "N"))
        return {"mu": infection.infected_mu(mu_j, profile, mu_l), "route": "profile"}
    if "alpha" in payload or "beta" in payload:
        counts = infection.BandSumCounts(
            _int_matrix(_require(payload, "alpha"), "alpha"),
            _int_matrix(_require(payload, "beta"), "beta"),
        )
        via_bands = infection.band_sum_expansion(mu_j, counts, mu_l)
        via_profile = infection.infected_mu(mu_j, counts.net_profile(), mu_l)
        if via_bands != via_profile:
            raise CrossCheckError(
                f"band-sum expansion {via_bands} != profile formula {via_profile}"
            )
        return {"mu": via_bands, "route": "band-sum", "cross_checked": True}
    raise ValueError("need either 'N' or 'alpha' and 'beta'")


def cmd_genus_one(payload: dict, args) -> dict:
    d = _as_int(_require(payload, "d"), "d")
    e = _as_int(_require(payload, "e"), "e")
    r = seifert.genus_one_normalize(d, e)
    return {
        "n": r.n,
        "x": r.x,
        "y": r.y,
        "z": r.z,
        "w": r.w,
        "normalized_e": seifert.normalize_e(e),
        "new_matrix": _record_json(r.new_matrix),
    }


def cmd_ledger(payload: dict, args) -> dict:
    raw = _require(payload, "params")
    if not isinstance(raw, dict):
        raise ValueError("params must be an object")
    params = realization.GenusThreeParams(*(
        _as_int(_require(raw, name), name) for name in realization.GenusThreeParams.__slots__
    ))
    n = _as_int(_require(payload, "n"), "n")
    led = realization.ledger(params, n)
    return _record_json(led) | {"description": _record_json(led.description),
                                "pushoff_entries": realization.pushoff_ledger_entries(params, n)}


_HANDLERS = {
    "mu": cmd_mu,
    "depth": cmd_depth,
    "class": cmd_class,
    "generator": cmd_generator,
    "metabolizer": cmd_metabolizer,
    "enumerate": cmd_enumerate,
    "infect": cmd_infect,
    "genus-one": cmd_genus_one,
    "ledger": cmd_ledger,
}


@functools.cache
def _help_width() -> int:
    """argparse's default help width, read from the terminal once per process."""
    import shutil

    return shutil.get_terminal_size().columns - 2


class _Formatter(argparse.HelpFormatter):
    """argparse's help formatter, without a terminal query per argument."""

    def __init__(self, prog, **kwargs):
        super().__init__(prog, width=_help_width(), **kwargs)


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on bad argv, where argparse prints usage and exits."""

    def __init__(self, **kwargs):
        super().__init__(formatter_class=_Formatter, **kwargs)

    def error(self, message):
        raise ValueError(message)


def _add_options(parser: argparse.ArgumentParser, name: str) -> None:
    """Add the options of subcommand name to parser."""
    parser.add_argument("--input", default=None, help="JSON input file (default: stdin)")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--seed", type=int, default=0, help="seed for self-checks")
    if name == "mu":
        parser.add_argument(
            "--show-series",
            action="store_true",
            help=f"include the Magnus series (cap from ${ENV_DEGREE_CAP}, default "
            f"{magnus.DEFAULT_DEGREE_CAP})",
        )


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The full parser's subparser for name, built on its own for a fraction of the cost."""
    parser = _Parser(prog=f"trilink {name}")
    _add_options(parser, name)
    return parser


def _full_parser() -> argparse.ArgumentParser:
    """The trilink parser with all nine subparsers.

    Used when argv[0] names no subcommand, so that usage and "invalid
    choice" messages list every subcommand.
    """
    parser = _Parser(
        prog="trilink",
        description="Exact computations for triple linking numbers of derivative links.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    for name in _HANDLERS:
        _add_options(sub.add_parser(name), name)
    return parser


def _load_payload(args) -> dict:
    if args.input is None:
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read input file: {exc}") from None
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("top-level JSON value must be an object")
    return payload


def _render(result: dict, mode: str) -> str:
    if mode == "text":
        return "\n".join(
            f"{key}: {json.dumps(value) if isinstance(value, (dict, list)) else value}"
            for key, value in _encode(result).items()
        )
    text = json.dumps(result)
    # every |n| >= BIG has 16 or more digits: without a run of 16 no integer needs quoting
    return json.dumps(_encode(result)) if "9" * 16 in text.translate(_DIGITS_TO_NINES) else text


def _emit_error(code: str, detail: str) -> None:
    print(json.dumps({"error": code, "detail": detail}))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        if argv and argv[0] in _HANDLERS:
            command = argv[0]
            args = _command_parser(command).parse_args(argv[1:])
        else:
            args = _full_parser().parse_args(argv)
            command = args.command  # newer argparse lets a "--" precede the subcommand
        payload = _load_payload(args)
        text = _render(_HANDLERS[command](payload, args), args.output)
    except SystemExit as exc:  # only --help exits, after printing the help text
        return exc.code if isinstance(exc.code, int) else 2
    except PreconditionError as exc:
        _emit_error("precondition", str(exc))
        return 3
    except CrossCheckError as exc:
        _emit_error("internal-check", str(exc))
        return 4
    except (ValueError, TypeError, KeyError) as exc:
        _emit_error("bad-input", str(exc))
        return 2
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
