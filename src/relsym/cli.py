"""Command line front end.

Every subcommand prints plain text by default and a stable JSON envelope
``{command, inputs, result, cross_checks}`` with ``--json``.  Exit codes:
0 success, 1 bad input, 2 a size cap was exceeded, 3 an internal consistency
check failed (always a bug).

``cross_checks`` is non-empty only for ``dim``, which lists each agreement
it checked as ``[name, passed]``; under ``--verify`` at small sizes that
includes the exact rank.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Sequence
from functools import cache
from itertools import islice

# layers run on first use (see the package docstring): main reads these two
# only when it needs them, and each handler imports the layers it calls
from . import config, errors


class _CliParser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments; remap to 1 (2 means a cap here)."""

    def error(self, message: str) -> None:  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        raise SystemExit(self.prog + ": error: " + message)


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be comma-separated integers, got {text!r}")


def _env_int(name: str) -> int | None:
    text = os.environ.get(name)
    try:
        return None if text is None else int(text)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {text!r}") from None


# the text of a partition: its parts joined by _PART_SEP, filled into _PARTITION
_PARTITION, _PART_SEP = "(%s)", ","


def _format_partition(p: Sequence[int]) -> str:
    return _PARTITION % _PART_SEP.join(map(str, p))


def _fraction(v) -> int | str:
    # the encoder's fallback for the one non-JSON type a result holds: Fraction
    return int(v) if v.denominator == 1 else str(v)


_JSON_BATCH = 4096  # encoder chunks joined per write
# per-partition rows joined per write: ~14 KB at qchar --m 36 --d 40 --json.
# Its walk holds a table of ~0.5 MB while it writes, and 256 rows a write
# raised its peak RSS by a further ~0.3 MB (4096 rows by 5 MB)
_ROW_BATCH = 64


def _emit(
    args, inputs: dict, result: Callable[[], object], text: Callable[[], str], cross_checks=()
) -> None:
    """Print the JSON envelope under ``--json``, else the text; only the one
    printed is built.  The envelope goes through the indenting encoder and
    is streamed in batches of its chunks."""
    if not args.json:
        print(text())
        return
    envelope = {
        "command": args.command,
        "cross_checks": cross_checks,
        "inputs": inputs,
        "result": result(),
    }
    chunks = json.JSONEncoder(indent=2, sort_keys=True, default=_fraction).iterencode(envelope)
    while batch := list(islice(chunks, _JSON_BATCH)):
        sys.stdout.write("".join(batch))
    sys.stdout.write("\n")


def _emit_per_partition(args, rows, key: str, names: tuple[str, str]) -> None:
    """One row per triple ``(p, (b, c), v)`` of ``rows``, in its order: the
    partition ``p + 2^b 1^c`` of ``args.m`` and its integer ``v``, keyed by
    ``names``, written in batches of rows as they come.  The text is the
    rows joined by ", " on one line, each partition as
    :func:`_format_partition` writes it.  Under ``--json`` the envelope is
    written as the indenting encoder would print it, without it: a fixed
    head and end, and each row filled into one positional text template
    whose slots follow the sorted keys.  The head goes out with the first
    batch of rows, so an error in that batch comes before any output.  It
    has a row per partition of m >= 1, so neither it nor any row's list is
    empty.  The text of each distinct tail 2^b 1^c is rendered once per
    call, that of ``p`` once per run of rows that share it, and the two
    are joined per row."""
    if not args.json:
        head, sep, end = "", ", ", "\n"
        row, between, value_first = _PARTITION + ": %d", _PART_SEP, False
    else:
        head = (
            f'{{\n  "command": "{args.command}",\n  "cross_checks": [],\n'
            f'  "inputs": {{\n    "d": {args.d},\n    "m": {args.m}\n  }},\n'
            f'  "result": {{\n    "{key}": [\n'
        )
        sep, end = ",\n", "\n    ]\n  }\n}\n"
        slots = {names[0]: "[\n          %s\n        ]", names[1]: "%d"}
        row = "      {\n" + ",\n".join(f'        "{k}": {slots[k]}' for k in sorted(slots))
        row += "\n      }"
        between = ",\n          "  # the parts of one partition
        value_first = names[1] < names[0]
    part = [str(i) for i in range(args.m + 1)].__getitem__  # each part is at most m
    join = between.join
    after = cache(lambda tail: (between + "2") * tail[0] + (between + "1") * tail[1])
    cut = len(between)  # only the walk's root has an empty p: its tail stands alone

    def texts():
        # the walk yields the tails of one p in a run, with one tuple: p's
        # text is joined once per run
        p = text = None
        for row_p, tail, v in rows:
            if row_p is not p:
                p, text = row_p, join(map(part, row_p))
            yield (text + after(tail) if p else after(tail)[cut:]), v

    lines = (row % (v, text) for text, v in texts()) if value_first else map(row.__mod__, texts())
    write = sys.stdout.write
    write(head + sep.join(islice(lines, _ROW_BATCH)))
    while batch := list(islice(lines, _ROW_BATCH)):
        write(sep + sep.join(batch))
    write(end)


def _cmd_denumerant(args) -> None:
    from .denumerant import _denumerant_counts, denumerant
    coins = _parse_ints(args.coins, "--coins")
    if args.series:
        values = _denumerant_counts(coins, args.amount)
        result, text = {"series": values}, lambda: " ".join(str(v) for v in values)
    else:
        value = denumerant(coins, args.amount)
        result, text = {"count": value}, lambda: str(value)
    inputs = {"coins": list(coins), "amount": args.amount, "series": args.series}
    _emit(args, inputs, lambda: result, text)


def _cmd_qchar(args) -> None:
    # the values of denumerant_class_function, after its checks, streamed
    # from the walk: no tuple of the classes, no cache entry
    from .denumerant import _solution_walk
    from .partitions import _check_m_d
    m, d = _check_m_d(args.m, args.d)
    _emit_per_partition(args, _solution_walk(m, d), "classes", ("cycle_type", "value"))


def _cmd_decompose(args) -> None:
    from .denumerant import _hook_rows
    rows = ((pi, (0, 0), v) for pi, v in _hook_rows(args.m, args.d))
    _emit_per_partition(args, rows, "multiplicities", ("partition", "multiplicity"))


def _cmd_kostka(args) -> None:
    from .tableaux import count_fillings
    shape = _parse_ints(args.shape, "--shape")
    content = _parse_ints(args.content, "--content")
    value = count_fillings(shape, content)
    inputs = {"shape": list(shape), "content": list(content)}
    _emit(args, inputs, lambda: {"kostka": value}, lambda: str(value))


def _cmd_character(args) -> None:
    from .characters import character_table, irreducible_character_value
    if args.table is not None:
        if args.partition is not None or args.cls is not None:
            raise ValueError("--table takes neither --partition nor --class")
        table = character_table(args.table)

        def result():
            rows = [
                {"partition": list(pi), "values": list(row.values())} for pi, row in table.items()
            ]
            return {"classes": [list(lam) for lam in table], "rows": rows}

        def text():
            lines = ["classes: " + " ".join(_format_partition(lam) for lam in table)]
            lines += [
                _format_partition(pi) + ": " + " ".join(map(str, row.values()))
                for pi, row in table.items()
            ]
            return "\n".join(lines)

        _emit(args, {"table": args.table}, result, text)
        return
    if not args.partition or not args.cls:
        raise ValueError("need either --table M or both --partition and --class")
    pi = _parse_ints(args.partition, "--partition")
    lam = _parse_ints(args.cls, "--class")
    value = irreducible_character_value(pi, lam)
    inputs = {"partition": list(pi), "class": list(lam)}
    _emit(args, inputs, lambda: {"value": value}, lambda: str(value))


def _cmd_dim(args) -> None:
    from .dimensions import RANK_VERIFY_WINDOW, dimension_report
    pi = _parse_ints(args.partition, "--partition")
    report = dimension_report(args.m, args.d, pi, verify_rank=args.verify)
    if args.verify and report.rank_dimension is None:
        note = f"note: --verify ran no exact rank check; it runs only at {RANK_VERIFY_WINDOW}"
        print(note, file=sys.stderr)
    witness = report.nonvanishing_witness

    def text():
        return "\n".join([
            f"m={report.m} d={report.d} partition={_format_partition(report.pi)}",
            f"dimension: {report.dimension}",
            *(f"  {name.replace('_', ' ') + ':':16}{value}" for name, value in report.by_route()),
            "witness: " + (_format_partition(witness) if witness is not None else "none"),
        ])

    result = report._asdict()
    result["partition"] = result.pop("pi")
    inputs = {"m": args.m, "d": args.d, "partition": list(pi), "verify": args.verify}
    _emit(args, inputs, lambda: result, text, report.checks())


def _cmd_vanish(args) -> None:
    from .dimensions import is_nonvanishing
    pi = _parse_ints(args.partition, "--partition")
    nonzero, witness = is_nonvanishing(args.m, args.d, pi)
    if nonzero:
        text = f"non-vanishing (witness {_format_partition(witness)})"
    else:
        text = "vanishes (no witness)"
    result = {"nonvanishing": nonzero, "witness": list(witness) if witness is not None else None}
    inputs = {"m": args.m, "d": args.d, "partition": list(pi)}
    _emit(args, inputs, lambda: result, lambda: text)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    found: dict = {}
    for key, value in pairs:
        if key in found:
            raise ValueError(f"character file repeats the key {key!r}")
        found[key] = value
    return found


def _load_character_file(path: str, group: PermutationGroup) -> CharacterSpec:
    """A character file maps class representatives in cycle notation to
    integer values, e.g. {"()": 2, "(1 2)": 0, "(1 2 3)": -1}."""
    from .groups import parse_permutation
    from .symmetrizer import CharacterSpec
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:  # an unreadable file is bad input, like a malformed one
        raise ValueError(str(exc)) from exc
    if not isinstance(raw, dict):
        raise ValueError("character file must be a JSON object")
    class_values = {}
    for key, value in raw.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"character value for {key!r} must be an integer")
        perm = parse_permutation(key, group.m)
        if perm in class_values:
            raise ValueError(f"character file key {key!r} repeats an earlier permutation")
        class_values[perm] = value
    return CharacterSpec.from_class_values(group, class_values)


def _cmd_symmetrize(args) -> None:
    from .groups import PermutationGroup, parse_generators
    from .partitions import check_exponent_vector
    from .symmetrizer import _checked_norm, symmetrize_monomial
    alpha = check_exponent_vector(_parse_ints(args.alpha, "--alpha"))
    m = len(alpha)
    generators = parse_generators(args.generators, m)
    group = PermutationGroup(generators, m)
    chi = _load_character_file(args.character, group)
    poly = symmetrize_monomial(group, chi, alpha)
    norm = _checked_norm(poly, alpha)
    ordered = sorted(poly.coefficients.items())
    lines = [
        f"{_format_partition(beta)}: {coeff}" for beta, coeff in ordered
    ]
    lines.append(f"norm_squared: {norm}")
    result = {
        "coefficients": [
            {"exponent": list(beta), "coefficient": coeff} for beta, coeff in ordered
        ],
        "norm_squared": norm,
    }
    inputs = {"generators": args.generators, "character": args.character, "alpha": list(alpha)}
    _emit(args, inputs, lambda: result, lambda: "\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    # the docstring's last paragraph is for readers of this module, not of --help
    parser = _CliParser(prog="relsym", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, *int_flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in int_flags:
            p.add_argument(flag, required=True, type=int)
        return p

    p = add("denumerant", _cmd_denumerant, "count coin-change solutions")
    p.add_argument("--coins", required=True, help="comma-separated coin values")
    p.add_argument("--amount", required=True, type=int, help="amount to pay")
    p.add_argument("--series", action="store_true", help="all amounts up to --amount")
    add("qchar", _cmd_qchar, "solution counts per cycle type", "--m", "--d")
    add("decompose", _cmd_decompose, "irreducible multiplicities of the counts", "--m", "--d")
    p = add("kostka", _cmd_kostka, "count semistandard tableaux")
    p.add_argument("--shape", required=True, help="shape partition, e.g. 3,2")
    p.add_argument("--content", required=True, help="content composition, e.g. 2,2,1")
    p = add("character", _cmd_character, "symmetric group character values")
    p.add_argument("--partition", help="character partition")
    p.add_argument("--class", dest="cls", help="class cycle type")
    p.add_argument("--table", type=int, help="print the full table of this degree")
    p = add("dim", _cmd_dim, "dimension of the symmetrized space", "--m", "--d")
    p.add_argument("--partition", required=True)
    p.add_argument(
        "--verify",
        action="store_true",
        help="cross-check all formulas (plus the rank construction at small sizes)",
    )
    p = add("vanish", _cmd_vanish, "non-vanishing criterion with witness", "--m", "--d")
    p.add_argument("--partition", required=True)
    p = add("symmetrize", _cmd_symmetrize, "symmetrize a monomial over a group")
    p.add_argument(
        "--generators", required=True, help='cycle notation, e.g. "(1 2),(1 2 3)"'
    )
    p.add_argument(
        "--character", required=True, help="JSON file of class representative values"
    )
    p.add_argument("--alpha", required=True, help="exponent vector, e.g. 2,0,0")

    # after each subcommand's own options, so they close every option list
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="emit a JSON envelope")
        p.add_argument(
            "--max-elements",
            type=int,
            help="cap on permutation group orders (also RELSYM_MAX_ELEMENTS)",
        )
        p.add_argument(
            "--max-gamma", type=int, help="cap on the number of exponent vectors enumerated"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        return 0 if not exc.code else 1
    caps = {"max_gamma": args.max_gamma, "max_group_order": args.max_elements}
    try:
        if args.max_elements is None:
            caps["max_group_order"] = _env_int(config.MAX_ELEMENTS_ENV)
        with config.use_limits(**{k: v for k, v in caps.items() if v is not None}):
            args.func(args)
            sys.stdout.flush()  # so that a closed pipe is caught here, not at exit
        return 0
    except BrokenPipeError:
        # the reader closed the pipe, which is not bad input; what is still
        # buffered then goes to the null device, so the last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # only writes of the answer raise it, e.g. to a full disk
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    except errors.ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except errors.ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
