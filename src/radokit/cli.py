"""Command-line surface.

Every command is pure input to output: exit 0 for a definite positive
answer, 1 for a definite negative one (no certificate, not a member, no
solution), 2 for usage, parse, or budget errors.  Reports are plain text
with stable field order and all rationals in canonical form, so identical
inputs give byte-identical output.  Indices in reports are 1-based.

A command line is read in one pass over its command's option table
(_read_options) when it holds only exact option strings with their
values, --option=value forms and flags.  argparse reads every other one,
so it alone prints help, usage and errors.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from collections.abc import Iterable, Iterator, Sequence

from .linalg import _read_text, read_integer_rows, read_matrix
from .rado import columns_condition_rows, first_entries
from .rings import (
    DIGIT_LIMIT,
    Rat,
    _format_parts,
    _parse_int,
    _rat_parts,
    _sum_parts,
    format_rat,
    in_scaled_subring_parts,
    parse_prime_set,
    parse_rat,
    parse_rats,
    pigeonhole_subset_parts,
)
from .search import (
    BudgetExceededError,
    Colouring,
    GroundSet,
    min_rado_number_rows,
    monochromatic_solution_rows,
)
from .systems import (
    SystemSpec,
    d_combination_parts,
    natural_solution_witness,
    parse_schedule,
    refute_over_subring_parts,
    stacked_rows,
    truncated_residuals_parts,
    truncated_rows,
)

# The most entries (rows x columns) that build-system and build-iab print,
# and the most values that nat-witness prints.
ENTRY_LIMIT = 4_500_000


def _write_matrix(header: list[str], rows: Iterable[list[tuple[int, int, Rat]]],
                  cols: int, out: str | None) -> None:
    """Write the header as '#' lines, then each row as it arrives.  A row
    is its runs (column, count, value) in column order, each written as the
    zeros before it, a slice of one "0 " * cols string, then the value's
    text `count` times.  A value is formatted only when it is not the
    previous run's object, across rows too: nearly every run holds the
    shared 1 or -1."""
    with (contextlib.nullcontext(sys.stdout) if out is None
          else open(out, "w")) as f:
        f.write("".join(f"# {line}\n" for line in header))
        zeros = "0 " * cols
        last = text = None
        for row in rows:
            parts = []
            done = 0
            for j, count, x in row:
                if x is not last:
                    last, text = x, format_rat(x) + " "
                parts += zeros[: 2 * (j - done)], text * count
                done = j + count
            parts.append(zeros[: 2 * (cols - done)])
            f.write("".join(parts)[:-1] + "\n")


def _texts(values: Iterable[Rat]) -> Iterator[str]:
    """format_rat of each value, run again only when a value is not the
    object before it: a witness repeats one object for most of its values,
    and hashing a Fraction costs more than formatting it."""
    last = text = None
    for x in values:
        if x is not last:
            last, text = x, format_rat(x)
        yield text


def _check_entries(count: int) -> None:
    """Refuse, before any work, an output of more than ENTRY_LIMIT entries."""
    if count > ENTRY_LIMIT:
        raise ValueError(f"the output would hold {count} entries, more than "
                         f"the limit of {ENTRY_LIMIT}")


def _names(groups: Iterable[tuple[str, Sequence[str]]]) -> str:
    """The names of (prefix, suffixes) groups, space-separated, each group
    in one join."""
    return " ".join(prefix + (" " + prefix).join(suffixes) for prefix, suffixes in groups)


def _system_spec(args: argparse.Namespace) -> SystemSpec:
    return SystemSpec(args.alpha, args.depth, parse_schedule(args.schedule))


def _printable_system_spec(args: argparse.Namespace) -> SystemSpec:
    """The spec of a build-* command, refused before anything is built when
    its largest denominator D(depth), which the matrix prints, is too long."""
    spec = _system_spec(args)
    s = spec.schedule
    if s.table is None and s.denominator_exceeds(spec.depth, DIGIT_LIMIT):
        raise ValueError(f"schedule {s.kind}: D({spec.depth}) has more than "
                         f"{DIGIT_LIMIT} digits, too many to print")
    return spec


def _rat_list(text: str) -> list[tuple[int, int]]:
    """The numerator and denominator in lowest terms (`_rat_parts`) of each
    nonblank token of a comma list, each distinct token read once."""
    return parse_rats([tok for tok in text.split(",") if tok.strip() != ""], _rat_parts)


def _parse_colouring(spec: str) -> Colouring:
    """A colouring flag: log2parity, or file:PATH with one 'value colour'
    line per coloured value.  Each line's value is read before its colour,
    once, so errors come in text order."""
    if spec == "log2parity":
        return Colouring("log2parity")
    if not spec.startswith("file:"):
        raise ValueError(f"unknown colouring: {spec!r}")
    values, colours = [], []
    for line in _read_text(spec[len("file:"):]).splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) == 2:
            values.append(parse_rat(parts[0]))
        try:
            # a colour is an integer token without a sign
            if len(parts) != 2 or parts[1].startswith("-"):
                raise ValueError
            colours.append(_parse_int(parts[1]))
        except ValueError:  # or past the text-to-int digit limit
            raise ValueError(f"expected 'value colour', got {stripped!r}") from None
    return Colouring.table(values, colours)


def _parse_ground(spec: str) -> GroundSet:
    try:
        bounds = [_parse_int(part) for part in spec.split(",")]
    except ValueError:
        bounds = []
    if not 1 <= len(bounds) <= 2:
        raise ValueError(f"ground set is num_bound or num_bound,denominator: {spec!r}")
    return GroundSet.slice(*bounds)


def _cmd_cc_check(args: argparse.Namespace) -> int:
    cert = columns_condition_rows(*read_integer_rows(args.matrix))
    if cert is None:
        print("no certificate")
        return 1
    print("certificate:")
    for t, block in enumerate(cert.blocks, start=1):
        print(f"block {t}: " + " ".join(str(j + 1) for j in block))
    for t, witness in enumerate(cert.witnesses, start=2):
        print(f"witness {t}: " + " ".join(_texts(witness)))
    return 0


def _cmd_fe_check(args: argparse.Namespace) -> int:
    M = read_matrix(args.matrix)
    if M.rows == 0:
        raise ValueError("matrix has no rows")
    report = first_entries(M)
    for i, j, value in report.entries:
        print(f"row {i + 1}: first entry {format_rat(value)} at column {j + 1}")
    for i in report.zero_rows:
        print(f"row {i + 1}: zero row")
    if report.common_value is not None:
        print(f"common first entry: {format_rat(report.common_value)}")
    ok = report.condition_holds(args.strict)
    label = "strict" if args.strict else "weak"
    print(f"{label} first entries condition: " + ("holds" if ok else "fails"))
    return 0 if ok else 1


def _cmd_build_system(args: argparse.Namespace) -> int:
    spec = _printable_system_spec(args)
    _check_entries((spec.depth - 1) * spec.var_count)
    header = [
        f"truncated system: depth {spec.depth}, alpha {spec.alpha}",
        "columns: " + _names(spec.name_groups()),
    ]
    _write_matrix(header, truncated_rows(spec), spec.var_count, args.out)
    return 0


def _cmd_build_iab(args: argparse.Namespace) -> int:
    spec = _printable_system_spec(args)
    # I, then k-1 rows of A, then one row of B per pair of y columns
    cols = spec.x_count + spec.alpha
    _check_entries((cols + spec.depth - 1 + math.comb(spec.alpha, 2)) * cols)
    header = [
        f"stacked (I; A; B) matrix: depth {spec.depth}, alpha {spec.alpha}",
        # the names of all groups but the z group
        "columns: " + _names(list(spec.name_groups())[:-1]),
    ]
    _write_matrix(header, stacked_rows(spec), cols, args.out)
    return 0


def _cmd_membership(args: argparse.Namespace) -> int:
    a, b = _rat_parts(args.value)
    primes = parse_prime_set(args.primes)
    if in_scaled_subring_parts(a, b, args.scale, primes):
        print("member")
        return 0
    print("not a member")
    return 1


def _cmd_pigeonhole(args: argparse.Namespace) -> int:
    primes = parse_prime_set(args.primes)
    values = _rat_list(args.values)
    indices = pigeonhole_subset_parts(args.m, primes, values)
    a, b = _sum_parts(values[i] for i in indices)
    print("indices: " + " ".join(str(i + 1) for i in indices))
    print(f"sum: {_format_parts(a, b)}")
    g = math.gcd(a, args.m)
    print(f"sum / {args.m}: {_format_parts(a // g, b * (args.m // g))}")
    return 0


def _cmd_refute(args: argparse.Namespace) -> int:
    if args.nmax < 0:
        raise ValueError(f"--nmax must be nonnegative, got {args.nmax}")
    spec = _system_spec(args)
    primes = parse_prime_set(args.primes)
    y = _rat_list(args.y)
    n, cy = refute_over_subring_parts(spec, primes, y, args.nmax)
    if n is None:
        print(f"no obstruction for n up to {args.nmax}")
        return 1
    combo = _format_parts(*d_combination_parts(spec.schedule, n, y, cy))
    print(f"obstruction at n={n}: d-combination {combo} is outside the subring")
    return 0


def _cmd_nat_witness(args: argparse.Namespace) -> int:
    spec = _system_spec(args)
    _check_entries(spec.var_count)
    witness = natural_solution_witness(spec)
    start = 0
    for prefix, suffixes in spec.name_groups():
        values = witness[start:start + len(suffixes)]
        start += len(suffixes)
        # a group of equal values in one join; the x groups of a witness
        # hold one object, which the comparison passes by identity
        if values[1:] == values[:-1]:
            eq = f" = {format_rat(values[0])}\n"
            sys.stdout.write(prefix + (eq + prefix).join(suffixes) + eq)
        else:
            sys.stdout.write("".join(f"{prefix}{name} = {format_rat(x)}\n"
                                     for name, x in zip(suffixes, values)))
    ok = not any(a for a, _ in truncated_residuals_parts(spec, witness))
    print("verified: all residuals zero" if ok else "verification failed")
    return 0 if ok else 2


def _cmd_mono_search(args: argparse.Namespace) -> int:
    if args.budget < 1:
        raise ValueError(f"--budget must be positive, got {args.budget}")
    rows, cols = read_integer_rows(args.matrix)
    colouring = _parse_colouring(args.colouring)
    ground = _parse_ground(args.ground)
    found = monochromatic_solution_rows(rows, cols, colouring, ground,
                                        args.distinct, args.budget)
    if found is None:
        print("no monochromatic solution")
        return 1
    print("solution: " + " ".join(format_rat(x) for x in found))
    print(f"colour: {colouring.colour_of(found[0])}")
    return 0


def _cmd_rado_number(args: argparse.Namespace) -> int:
    result = min_rado_number_rows(*read_integer_rows(args.matrix), args.colours,
                                  args.nmax)
    if result.number is None:
        print(f"no rado number up to {args.nmax}")
        print(f"surviving colouring of 1..{len(result.witness)}:")
    else:
        print(f"rado number: {result.number}")
        if result.witness:
            print(f"witness colouring of 1..{len(result.witness)}:")
    for value, colour in enumerate(result.witness, start=1):
        print(f"{value} {colour}")
    return 1 if result.number is None else 0


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser,
                             dict[str, argparse.ArgumentParser]]:
    """The parser and its table from command name to that command's parser,
    built on the first call and reused: parsing returns a fresh Namespace
    each time, and nothing changes the parsers once built."""
    parser = argparse.ArgumentParser(
        prog="radokit",
        description="columns-condition certificates, localized-subring "
        "arithmetic, and colouring searches for partition regularity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options that several commands share, each declared once
    matrix = argparse.ArgumentParser(add_help=False)
    matrix.add_argument("--matrix", required=True, help="matrix file")
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--alpha", type=_parse_int, required=True)
    system.add_argument("--depth", type=_parse_int, required=True)
    system.add_argument("--schedule", required=True,
                        help="qpow:Q | allprimes | qpowpair:Q | allprimespair "
                             "| file:PATH")

    def add(name: str, handler, help_text: str, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, parents=parents)
        p.set_defaults(handler=handler)
        return p

    add("cc-check", _cmd_cc_check, "decide the columns condition", matrix)

    p = add("fe-check", _cmd_fe_check, "report first entries", matrix)
    p.add_argument("--strict", action="store_true",
                   help="demand one constant across all first entries")

    for name, handler, help_text in (
        ("build-system", _cmd_build_system, "emit a truncated system matrix"),
        ("build-iab", _cmd_build_iab, "emit the stacked (I; A; B) matrix"),
    ):
        p = add(name, handler, help_text, system)
        p.add_argument("--out", help="write to this file instead of stdout")

    p = add("membership", _cmd_membership, "test subring membership")
    p.add_argument("--value", required=True, help="rational to test")
    p.add_argument("--primes", required=True,
                   help="'' | all | 2,3,7 | all-except:2")
    p.add_argument("--scale", type=_parse_int, default=1,
                   help="test membership in scale * subring (default 1)")

    p = add("pigeonhole", _cmd_pigeonhole,
            "find a subset summing to a multiple of m")
    p.add_argument("--m", type=_parse_int, required=True)
    p.add_argument("--primes", required=True)
    p.add_argument("--values", required=True, help="comma-separated rationals")

    p = add("refute", _cmd_refute,
            "search for a denominator obstruction to subring solvability", system)
    p.add_argument("--primes", required=True)
    p.add_argument("--y", required=True, help="comma-separated y values")
    p.add_argument("--nmax", type=_parse_int, required=True)

    add("nat-witness", _cmd_nat_witness,
        "positive-integer solution for a pair schedule", system)

    p = add("mono-search", _cmd_mono_search,
            "exhaustive monochromatic-solution search", matrix)
    p.add_argument("--colouring", required=True, help="log2parity | file:PATH")
    p.add_argument("--ground", required=True,
                   help="num_bound or num_bound,denominator")
    p.add_argument("--distinct", action="store_true",
                   help="demand pairwise distinct values")
    p.add_argument("--budget", type=_parse_int, default=10**8)

    p = add("rado-number", _cmd_rado_number,
            "least N forcing a monochromatic solution", matrix)
    p.add_argument("--colours", type=_parse_int, required=True)
    p.add_argument("--nmax", type=_parse_int, required=True)

    return parser, sub.choices


@functools.cache
def _option_table(command: argparse.ArgumentParser) -> tuple[dict, dict, int]:
    """What _read_options needs of a command's parser: each option string
    of its store and store_true actions to that action, the defaults a parse
    fills (less those of required options, which a parse must set), and the
    number of names a parse sets."""
    actions = [a for a in command._actions if a.default is not argparse.SUPPRESS]
    options = {s: a for a in actions for s in a.option_strings
               if type(a) in (argparse._StoreAction, argparse._StoreTrueAction)}
    defaults = {a.dest: a.default for a in actions if not a.required}
    return options, defaults | command._defaults, len(actions) + len(command._defaults)


def _read_options(command: argparse.ArgumentParser,
                  tokens: Iterator[str]) -> argparse.Namespace | None:
    """The Namespace command.parse_known_args(list(tokens)) gives, read in
    one pass, when every token is an exact option string followed by a value
    that does not start with '-', an --option=value, or a flag, each value
    converts, and no required option is missing.  None for any other tokens:
    help, abbreviations, '--', unknown tokens and every error are argparse's
    to read.  Each occurrence of an option converts in argv order, as in
    argparse, so a bad value is reported even when a later one overrides it."""
    options, defaults, size = _option_table(command)
    values = defaults.copy()
    for token in tokens:
        action = options.get(token)
        if action is None:
            # a '--' value is argparse's too: 3.11 reads --opt=-- as []
            name, eq, text = token.partition("=")
            action = options.get(name) if eq and text != "--" else None
            if action is None or action.nargs == 0:
                return None
        elif action.nargs == 0:
            values[action.dest] = action.const
            continue
        elif (text := next(tokens, "-")).startswith("-"):
            return None
        try:
            values[action.dest] = (action.type or str)(text)
        except ValueError:
            return None
    return argparse.Namespace(**values) if len(values) == size else None


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """Parse argv once.  An argv that names a command is read against that
    command's option table by _read_options.  What that reader does not
    accept goes to the command's parser, and the tokens the parser leaves to
    the top-level error, as the top-level pass, which only hands the rest to
    the same parser, would report them.  Any other argv (empty, -h, an
    unknown command, a leading --) can only print help or a usage error; the
    top-level parser reads it."""
    parser, commands = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args = _read_options(command, iter(argv[1:]))
    if args is None:
        args, extra = command.parse_known_args(argv[1:])
        if extra:
            parser.error("unrecognized arguments: " + " ".join(extra))
    return args


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(argv)
    try:
        return args.handler(args)
    except (BudgetExceededError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
