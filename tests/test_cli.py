import ast
import os
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction as F
from pathlib import Path

import pytest

import radokit.cli
import radokit.rado
import radokit.rings
import radokit.systems
from conftest import count_fractions
from radokit.cli import ENTRY_LIMIT, _build_parser, main
from linalg_reference import format_matrix
from radokit.linalg import RatMatrix, parse_matrix
from radokit.search import Colouring
from radokit.systems import (
    CoefficientSchedule,
    SystemSpec,
    natural_solution_witness,
    parse_schedule,
)
from systems_reference import dense_stacked_matrix, dense_truncated_system, variable_names


SRC = Path(__file__).resolve().parents[1] / "src"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestCcCheck:
    def test_certificate_output(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        assert main(["cc-check", "--matrix", matrix]) == 0
        out = capsys.readouterr().out
        assert out == ("certificate:\n"
                       "block 1: 1 3\n"
                       "block 2: 2\n"
                       "witness 2: 1 0\n")

    def test_witnesses_mix_zero_runs_and_repeated_values(self, tmp_path,
                                                         capsys):
        # a truncated system with y's coefficients 1/2 (written twice, once
        # as 2/4) and -3: witness 6 repeats 1/2 around runs of zeros
        matrix = write(tmp_path, "m.txt",
                       "# x_2_1 x_2_2 x_3_1 x_3_2 x_3_3 x_4_1 x_4_2 x_4_3 "
                       "x_4_4 y z_2 z_3 z_4\n"
                       "1 1 0 0 0 0 0 0 0 1/2 -1 0 0\n"
                       "0 0 1 1 1 0 0 0 0 2/4 0 -1 0\n"
                       "0\t0 0 0 0 1 1 1 1 -3 0 0 -1\n")
        assert main(["cc-check", "--matrix", matrix]) == 0
        assert capsys.readouterr() == (
            "certificate:\n"
            "block 1: 1 11\n"
            "block 2: 2\n"
            "block 3: 3 12\n"
            "block 4: 4\n"
            "block 5: 5\n"
            "block 6: 6 7 8 10\n"
            "block 7: 9\n"
            "block 8: 13\n"
            "witness 2: 1 0\n"
            "witness 3: 0 0 0\n"
            "witness 4: 0 0 1 0 0\n"
            "witness 5: 0 0 1 0 0 0\n"
            "witness 6: 1/2 0 1/2 0 0 0 0\n"
            "witness 7: 0 0 0 0 0 1 0 0 0 0 0\n"
            "witness 8: 0 0 0 0 0 -1 0 0 0 0 0 0\n", "")

    def test_no_certificate(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -3\n")
        assert main(["cc-check", "--matrix", matrix]) == 1
        assert capsys.readouterr().out == "no certificate\n"

    def test_too_many_columns(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", " ".join(["1"] * 33) + "\n")
        assert main(["cc-check", "--matrix", matrix]) == 2
        assert capsys.readouterr().err == (
            "error: columns_condition handles at most 32 columns, got 33\n")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["cc-check", "--matrix", str(tmp_path / "none.txt")]) == 2

    def test_malformed_matrix(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 2\n3\n")
        assert main(["cc-check", "--matrix", matrix]) == 2


class TestFeCheck:
    def test_holds(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 0\n0 1\n")
        assert main(["fe-check", "--matrix", matrix]) == 0
        out = capsys.readouterr().out
        assert "row 1: first entry 1 at column 1" in out
        assert "common first entry: 1" in out
        assert "weak first entries condition: holds" in out

    def test_zero_row_fails(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 0\n0 0\n")
        assert main(["fe-check", "--matrix", matrix]) == 1
        out = capsys.readouterr().out
        assert "row 2: zero row" in out
        assert "weak first entries condition: fails" in out

    def test_strict_flag(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 0\n0 2\n")
        assert main(["fe-check", "--matrix", matrix]) == 0
        assert main(["fe-check", "--matrix", matrix, "--strict"]) == 1
        assert "strict first entries condition: fails" in capsys.readouterr().out

    def test_one_report_per_check(self, tmp_path, capsys, monkeypatch):
        # the verdict comes from the report that is printed
        calls = []
        first_entries = radokit.rado.first_entries

        def counted(M):
            calls.append(M)
            return first_entries(M)

        monkeypatch.setattr(radokit.rado, "first_entries", counted)
        monkeypatch.setattr(radokit.cli, "first_entries", counted)
        matrix = write(tmp_path, "m.txt", "1 0 2\n0 3 1\n1 1 0\n")
        assert main(["fe-check", "--matrix", matrix, "--strict"]) == 1
        assert len(calls) == 1
        assert capsys.readouterr().out == (
            "row 1: first entry 1 at column 1\n"
            "row 2: first entry 3 at column 2\n"
            "row 3: first entry 1 at column 1\n"
            "strict first entries condition: fails\n")

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_empty_matrix_refused(self, tmp_path, capsys, text, strict):
        # as mono-search and rado-number refuse it; no condition is vacuous
        matrix = write(tmp_path, "m.txt", text)
        assert main(["fe-check", "--matrix", matrix, *strict]) == 2
        assert capsys.readouterr() == ("", "error: matrix has no rows\n")


class TestBuilders:
    def test_build_system_stdout(self, capsys):
        code = main(["build-system", "--alpha", "1", "--depth", "2",
                     "--schedule", "qpow:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# columns: x_2_1 x_2_2 y_1 z_2" in out
        assert parse_matrix(out).to_lists() == parse_matrix("1 1 1/4 -1").to_lists()

    def test_build_system_out_file_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "system.txt"
        code = main(["build-system", "--alpha", "2", "--depth", "3",
                     "--schedule", "qpowpair:3", "--out", str(out_file)])
        assert code == 0
        spec = SystemSpec(2, 3, CoefficientSchedule("qpowpair", 3))
        assert parse_matrix(out_file.read_text()) \
            == RatMatrix.from_rows(dense_truncated_system(spec))

    def test_build_iab(self, capsys):
        code = main(["build-iab", "--alpha", "1", "--depth", "2",
                     "--schedule", "qpow:2"])
        assert code == 0
        matrix = parse_matrix(capsys.readouterr().out)
        assert format_matrix(matrix).splitlines() == [
            "1 0 0", "0 1 0", "0 0 1", "1 1 1/4",
        ]

    def test_deterministic_output(self, capsys):
        args = ["build-system", "--alpha", "1", "--depth", "4",
                "--schedule", "allprimes"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_schedule_file(self, tmp_path, capsys):
        table = write(tmp_path, "d.txt", "0 0\n")
        code = main(["build-system", "--alpha", "2", "--depth", "2",
                     "--schedule", f"file:{table}"])
        assert code == 0
        assert parse_matrix(capsys.readouterr().out).row(0) \
            == parse_matrix("1 1 0 0 -1").row(0)

    def test_bad_schedule(self, capsys):
        assert main(["build-system", "--alpha", "1", "--depth", "2",
                     "--schedule", "fancy"]) == 2

    @pytest.mark.parametrize("q,err", [
        ("+1_3", "not an integer prime: '+1_3'"),
        ("1_3", "not an integer prime: '1_3'"),
        ("+13", "not an integer prime: '+13'"),
        ("1" * 4301, f"not an integer prime: {'1' * 4301!r}"),
        ("-3", "schedule qpow needs a prime q, got -3"),
    ])
    def test_schedule_q_is_an_integer_token(self, q, err, capsys):
        assert main(["build-system", "--alpha", "1", "--depth", "2",
                     "--schedule", f"qpow:{q}"]) == 2
        assert capsys.readouterr() == ("", f"error: {err}\n")

    @pytest.mark.parametrize("command", ["build-system", "build-iab"])
    def test_denominator_too_long_to_print(self, command, capsys):
        # D(49) = (2*3*...*227)^49 has 4358 digits, D(48) 4156
        start = time.perf_counter()
        assert main([command, "--alpha", "1", "--depth", "49",
                     "--schedule", "allprimes"]) == 2
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: schedule allprimes: D(49) has more than 4300 "
                       "digits, too many to print\n")

    def test_longest_printable_denominator(self, capsys):
        assert main(["build-system", "--alpha", "1", "--depth", "48",
                     "--schedule", "allprimes"]) == 0
        last = capsys.readouterr().out.splitlines()[-1]
        (d,) = [x for x in last.split() if "/" in x]
        assert len(d) == len("1/") + 4156


def expected_matrix_output(command, alpha, depth, schedule):
    """The header and format_matrix of the reference's dense matrix."""
    spec = SystemSpec(alpha, depth, parse_schedule(schedule))
    if command == "build-system":
        rows, label = dense_truncated_system(spec), "truncated system"
    else:
        rows, label = dense_stacked_matrix(spec), "stacked (I; A; B) matrix"
    M = RatMatrix.from_rows(rows)
    names = variable_names(spec)[:M.cols]
    return (f"# {label}: depth {depth}, alpha {alpha}\n"
            f"# columns: {' '.join(names)}\n" + format_matrix(M) + "\n")


class TestStreamedBuilders:
    """build-system and build-iab write one sparse row at a time; the bytes
    are those of the dense matrix, on stdout and in the --out file alike."""

    @pytest.mark.parametrize("command,alpha,depth,schedule", [
        ("build-iab", 1, 30, "qpow:5"),
        ("build-iab", 2, 25, "qpowpair:2"),
        ("build-system", 2, 40, "qpowpair:5"),
        ("build-system", 1, 48, "allprimes"),
    ])
    def test_same_bytes_as_the_dense_matrix(self, command, alpha, depth,
                                            schedule, tmp_path, capsys):
        argv = [command, "--alpha", str(alpha), "--depth", str(depth),
                "--schedule", schedule]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected_matrix_output(command, alpha, depth, schedule)
        out_file = tmp_path / "m.txt"
        assert main(argv + ["--out", str(out_file)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out_file.read_bytes() == out.encode()

    @pytest.mark.parametrize("command,alpha,depth,schedule,calls", [
        ("build-iab", 1, 30, "qpow:5", 58),
        ("build-system", 2, 30, "allprimespair", 116),
        ("build-iab", 1, 20, "qpow:3", 38),
    ])
    def test_each_run_of_one_object_formatted_once(
            self, command, alpha, depth, schedule, calls, monkeypatch, capsys):
        # the entries are mostly the one shared 1 and -1, within a row and
        # from the end of one row to the start of the next; one call per
        # entry would be 958, 551 and 438 calls
        formatted = []

        def counting(x):
            formatted.append(x)
            return radokit.rings.format_rat(x)

        monkeypatch.setattr(radokit.cli, "format_rat", counting)
        assert main([command, "--alpha", str(alpha), "--depth", str(depth),
                     "--schedule", schedule]) == 0
        assert len(formatted) == calls
        assert capsys.readouterr().out == expected_matrix_output(
            command, alpha, depth, schedule)

    @pytest.mark.parametrize("alpha,depth,schedule", [
        (1, 6, "qpow:3"), (2, 5, "qpowpair:2"), (2, 4, "allprimespair"),
        (3, 4, None), (5, 3, None),
    ])
    def test_header_names_are_the_variable_names(self, alpha, depth, schedule,
                                                 tmp_path, capsys):
        # an explicit table for alpha = 3, and one with alpha > depth
        schedule = schedule or "file:" + write(
            tmp_path, "d.txt", f"{' '.join(['1/2'] * alpha)}\n" * (depth - 1))
        spec = SystemSpec(alpha, depth, parse_schedule(schedule))
        names = variable_names(spec)
        for command, cols in (("build-system", spec.var_count),
                              ("build-iab", spec.x_count + alpha)):
            assert main([command, "--alpha", str(alpha), "--depth", str(depth),
                         "--schedule", schedule]) == 0
            header = capsys.readouterr().out.splitlines()[1]
            assert header == "# columns: " + " ".join(names[:cols])

    @pytest.mark.parametrize("command", ["build-system", "build-iab"])
    def test_schedule_file_of_zeros(self, command, tmp_path, capsys):
        schedule = "file:" + write(tmp_path, "d.txt", "0 0\n" * 6)
        argv = [command, "--alpha", "2", "--depth", "7", "--schedule", schedule]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == expected_matrix_output(command, 2, 7, schedule)
        assert main(argv + ["--out", str(tmp_path / "m.txt")]) == 0
        assert (tmp_path / "m.txt").read_bytes() == out.encode()

    def test_memory_for_one_row(self, tmp_path):
        # 199 rows x 20299 columns, 4.0 million entries
        out_file = tmp_path / "m.txt"
        argv = ["build-system", "--alpha", "1", "--depth", "200",
                "--schedule", "qpow:2", "--out", str(out_file)]
        tracemalloc.start()
        try:
            start = time.perf_counter()
            assert main(argv) == 0
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 2
        assert peak < 8 * 2**20
        with out_file.open() as f:
            assert sum(1 for _ in f) == 2 + 199

    @pytest.mark.parametrize("command,alpha,schedule", [
        ("build-system", 1, "qpow:2"),
        ("build-iab", 1, "qpow:2"),
        ("nat-witness", 2, "qpowpair:2"),
    ])
    def test_entry_limit(self, command, alpha, schedule, tmp_path, capsys):
        spec = SystemSpec(alpha, 3000, parse_schedule(schedule))
        cols = spec.x_count + alpha
        entries = {"build-system": (spec.depth - 1) * spec.var_count,
                   "build-iab": (cols + spec.depth - 1) * cols,
                   "nat-witness": spec.var_count}[command]
        assert entries > ENTRY_LIMIT
        refusal = ("", f"error: the output would hold {entries} entries, more "
                       f"than the limit of {ENTRY_LIMIT}\n")
        argv = [command, "--alpha", str(alpha), "--depth", "3000",
                "--schedule", schedule]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == refusal
        if command != "nat-witness":
            out_file = tmp_path / "m.txt"
            assert main(argv + ["--out", str(out_file)]) == 2
            assert capsys.readouterr() == refusal
            assert not out_file.exists()

    def test_digit_limit_checked_first(self, capsys):
        assert main(["build-iab", "--alpha", "1", "--depth", "3000",
                     "--schedule", "allprimes"]) == 2
        assert capsys.readouterr().err == (
            "error: schedule allprimes: D(3000) has more than 4300 digits, "
            "too many to print\n")


@pytest.fixture
def token_reads(monkeypatch):
    """Every token that the CLI reads through _rat_parts, and the count of
    the Fractions built, in any module."""
    reads = {"tokens": [], "fractions": 0}

    def parts(tok):
        reads["tokens"].append(tok)
        return radokit.rings._rat_parts(tok)

    monkeypatch.setattr(radokit.cli, "_rat_parts", parts)
    count_fractions(monkeypatch, reads)
    return reads


SUBRING_COMMANDS = [
    (["membership", "--value=-12/90", "--primes=all-except:2", "--scale", "6"],
     ["-12/90"], "member\n"),
    (["pigeonhole", "--m", "2", "--primes=3", "--values=0,-5/3,-5/3,2/6"],
     ["0", "-5/3", "2/6"], "indices: 2 3\nsum: -10/3\nsum / 2: -5/3\n"),
    (["refute", "--alpha", "2", "--depth", "2", "--schedule", "allprimespair",
      "--primes=2", "--y=-3/4,3,-3/4", "--nmax", "9"], ["-3/4", "3"],
     "error: expected 2 y-values, got 3\n"),
    (["refute", "--alpha", "2", "--depth", "2", "--schedule", "allprimespair",
      "--primes=2", "--y=-3/4,3", "--nmax", "9"], ["-3/4", "3"],
     "obstruction at n=3: d-combination 1/4000 is outside the subring\n"),
]


@pytest.mark.parametrize("argv,tokens,text", SUBRING_COMMANDS,
                         ids=["membership", "pigeonhole", "refute-error", "refute"])
def test_subring_commands_build_no_fraction(argv, tokens, text, token_reads, capsys):
    """membership, pigeonhole and refute over a built-in schedule read each
    distinct rational token once, as integers, and build no Fraction."""
    main(argv)
    assert "".join(capsys.readouterr()) == text
    assert token_reads == {"tokens": tokens, "fractions": 0}


class TestMembership:
    def test_member(self, capsys):
        assert main(["membership", "--value", "1/2", "--primes", "2"]) == 0
        assert capsys.readouterr().out == "member\n"

    def test_not_member(self, capsys):
        assert main(["membership", "--value", "1/2", "--primes", ""]) == 1
        assert capsys.readouterr().out == "not a member\n"

    def test_all_and_cofinite(self, capsys):
        # negative values need the = form so argparse does not read a flag
        assert main(["membership", "--value=-7/30", "--primes", "all"]) == 0
        assert main(["membership", "--value", "1/3",
                     "--primes", "all-except:3"]) == 1

    def test_scaled(self, capsys):
        assert main(["membership", "--value", "2/3", "--primes", "3",
                     "--scale", "2"]) == 0
        assert main(["membership", "--value", "1", "--primes", "",
                     "--scale", "2"]) == 1

    def test_bad_value(self, capsys):
        assert main(["membership", "--value", "1.5", "--primes", "all"]) == 2

    @pytest.mark.parametrize("primes", ["1_3", "+13", "13,+2", "all-except:1_3",
                                        "3.0", "--3", "1" * 4301])
    def test_prime_that_is_not_an_integer_token(self, capsys, primes):
        # the integer grammar of a rational: no +, no _, and a prime too
        # long for int() gets the same message
        assert main(["membership", "--value", "1/13", f"--primes={primes}"]) == 2
        listed = primes.removeprefix("all-except:")
        assert capsys.readouterr() == (
            "", f"error: not a comma-separated prime list: {listed!r}\n")

    @pytest.mark.parametrize("primes,code,out,err", [
        ("2, 3", 0, "member\n", ""),
        (" 2 ,3 ", 0, "member\n", ""),
        ("٣,2", 0, "member\n", ""),
        ("all-except: 3", 1, "not a member\n", ""),
        ("-3", 2, "", "error: -3 is not prime\n"),
    ])
    def test_prime_list_spacing_and_sign(self, capsys, primes, code, out, err):
        assert main(["membership", "--value", "1/6", f"--primes={primes}"]) == code
        assert capsys.readouterr() == (out, err)

    def test_prime_beyond_the_exact_test(self, capsys):
        big = 4 * 10**24 + 1
        start = time.perf_counter()
        assert main(["membership", "--value", "1/2", f"--primes=2,{big}"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == (
            f"error: {big} is too large for the exact primality test "
            "(limit 3317044064679887385961981)\n")

    def test_nineteen_digit_primes(self, capsys):
        p = 10**18 + 3
        start = time.perf_counter()
        assert main(["membership", f"--value=1/{p}", f"--primes={p}"]) == 0
        assert main(["refute", "--alpha", "1", "--depth", "2",
                     "--schedule", f"qpow:{p}", "--primes=", "--y=1",
                     "--nmax", "5"]) == 0
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().out == (
            f"member\nobstruction at n=2: d-combination 1/{p * p} "
            "is outside the subring\n")


class TestPigeonhole:
    def test_basic(self, capsys):
        code = main(["pigeonhole", "--m", "2", "--primes", "",
                     "--values", "1,1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "indices: 1 2\nsum: 2\nsum / 2: 1\n"

    def test_short_input(self, capsys):
        assert main(["pigeonhole", "--m", "3", "--primes", "",
                     "--values", "1,2"]) == 2

    def test_sum_too_long_to_print(self, capsys):
        nines = "9" * 4300
        assert main(["pigeonhole", "--m", "2", "--primes", "",
                     "--values", f"{nines},{nines}"]) == 2
        assert capsys.readouterr().err == (
            "error: cannot print a number of more than 4300 digits\n")

    def test_outside_element_named_by_its_1_based_position(self, capsys):
        assert main(["pigeonhole", "--m", "2", "--primes=",
                     "--values=1/2,1"]) == 2
        assert capsys.readouterr() == (
            "", "error: element 1 (1/2) is outside the subring\n")
        assert main(["pigeonhole", "--m", "2", "--primes=2",
                     "--values=1/2,1,1/6,1/3"]) == 2
        assert capsys.readouterr() == (
            "", "error: element 3 (1/6) is outside the subring\n")

    def test_each_distinct_token_is_parsed_once(self, token_reads, capsys):
        assert main(["pigeonhole", "--m", "3", "--primes=2",
                     "--values=1/2,1,1/2, 1,2/4,1,1/2"]) == 0
        assert token_reads == {"tokens": ["1/2", "1", " 1", "2/4"], "fractions": 0}
        assert capsys.readouterr().out == (
            "indices: 1 3 5\nsum: 3/2\nsum / 3: 1/2\n")


class TestRefute:
    def test_each_distinct_y_token_is_parsed_once(self, token_reads, capsys):
        assert main(["refute", "--alpha", "2", "--depth", "2", "--schedule",
                     "qpowpair:3", "--primes=2", "--y=1/2,1/2", "--nmax", "5"]) == 0
        assert token_reads == {"tokens": ["1/2"], "fractions": 0}
        assert capsys.readouterr().out == (
            "obstruction at n=2: d-combination 1/18 is outside the subring\n")

    def test_obstruction(self, capsys):
        code = main(["refute", "--alpha", "1", "--depth", "2",
                     "--schedule", "qpow:2", "--primes", "",
                     "--y", "1", "--nmax", "5"])
        assert code == 0
        assert capsys.readouterr().out == (
            "obstruction at n=2: d-combination 1/4 is outside the subring\n"
        )

    def test_scan_past_the_limit_refused(self, capsys):
        # 1000003 is the least prime past 10**6, and 78,498 primes lie below
        # 10**6: an nmax past that count would walk the primes up to 1000003
        argv = ["refute", "--alpha", "1", "--depth", "2", "--schedule",
                "allprimes", "--primes=all-except:1000003", "--y", "1"]
        assert main(argv + ["--nmax", "78499"]) == 2
        assert capsys.readouterr() == ("", (
            "error: the scan would read the primes up to 1000003, the least one "
            "outside the set, more than the limit of 1000000\n"))

    def test_no_obstruction(self, capsys):
        code = main(["refute", "--alpha", "2", "--depth", "2",
                     "--schedule", "qpowpair:2", "--primes", "",
                     "--y", "2,1", "--nmax", "50"])
        assert code == 1
        assert capsys.readouterr().out == "no obstruction for n up to 50\n"

    def test_outside_y_rejected(self, capsys):
        assert main(["refute", "--alpha", "1", "--depth", "2",
                     "--schedule", "qpow:2", "--primes", "",
                     "--y", "1/3", "--nmax", "5"]) == 2

    @pytest.mark.parametrize("excluded,nmax,n", [
        ("229", "100", 50),  # 229 is the 50th prime
        ("104729", "100000", 10000),  # and 104729 the 10000th
    ])
    def test_combination_too_long_to_print(self, excluded, nmax, n, capsys):
        start = time.perf_counter()
        assert main(["refute", "--alpha", "1", "--depth", "2",
                     "--schedule", "allprimes", f"--primes=all-except:{excluded}",
                     "--y=1", "--nmax", nmax]) == 2
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: the d-combination at n={n} has more than 4300 "
                       "digits, too many to print\n")

    def test_long_denominator_that_cancels_still_prints(self, capsys):
        # D(14285) = 2^14285 has 4301 digits, but y_2 = 2^14283 cancels it
        assert main(["refute", "--alpha", "2", "--depth", "2",
                     "--schedule", "qpowpair:2", "--primes", "",
                     f"--y=0,{2**14283}", "--nmax", "20000"]) == 0
        assert capsys.readouterr().out == (
            "obstruction at n=14285: d-combination 1/2 is outside the subring\n")

    @pytest.mark.parametrize("primes,code,out,err", [
        ("3", 0, "obstruction at n=2: d-combination 1/2 is outside the subring\n", ""),
        ("2", 2, "", "error: explicit schedule defines n up to 3, got 4\n"),
    ])
    def test_schedule_file_shorter_than_nmax(self, primes, code, out, err,
                                             tmp_path, capsys):
        # the table defines n = 2 and 3 only: an obstruction inside it is
        # reported, and a scan that runs past it is refused
        table = write(tmp_path, "d.txt", "1/2\n1/4\n")
        assert main(["refute", "--alpha", "1", "--depth", "2",
                     "--schedule", f"file:{table}", f"--primes={primes}",
                     "--y", "1", "--nmax", "10"]) == code
        assert capsys.readouterr() == (out, err)

    def test_negative_nmax(self, capsys):
        assert main(["refute", "--alpha", "1", "--depth", "2",
                     "--schedule", "qpow:2", "--primes", "",
                     "--y", "1", "--nmax", "-4"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --nmax must be nonnegative, got -4\n"


class TestNatWitness:
    def test_pair_witness(self, capsys):
        code = main(["nat-witness", "--alpha", "2", "--depth", "2",
                     "--schedule", "qpowpair:2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == ("x_2_1 = 1\nx_2_2 = 1\ny_1 = 2\ny_2 = 1\nz_2 = 2\n"
                       "verified: all residuals zero\n")

    def test_wrong_schedule_kind(self, capsys):
        assert main(["nat-witness", "--alpha", "1", "--depth", "2",
                     "--schedule", "qpow:2"]) == 2

    @pytest.mark.parametrize("name,line", [
        ("x_3_2", "x_3_2 = 2\n"), ("y_2", "y_2 = 2\n"), ("z_4", "z_4 = 5\n"),
    ])
    def test_a_wrong_value_fails(self, name, line, monkeypatch, capsys):
        def off_by_one(spec):
            values = list(natural_solution_witness(spec))
            values[variable_names(spec).index(name)] += 1
            return tuple(values)

        monkeypatch.setattr(radokit.cli, "natural_solution_witness", off_by_one)
        assert main(["nat-witness", "--alpha", "2", "--depth", "5",
                     "--schedule", "qpowpair:3"]) == 2
        out = capsys.readouterr().out
        assert line in out
        assert out.endswith("\nverification failed\n")

    def test_deep_witness_checked_row_by_row(self, monkeypatch, capsys):
        # 500 thousand values, checked without building any D(n)
        def no_denominator(schedule, n):
            raise AssertionError(f"D({n}) built")

        monkeypatch.setattr(CoefficientSchedule, "denominator", no_denominator)
        start = time.perf_counter()
        assert main(["nat-witness", "--alpha", "2", "--depth", "1000",
                     "--schedule", "allprimespair"]) == 0
        assert time.perf_counter() - start < 3
        out = capsys.readouterr().out
        assert out.startswith("x_2_1 = 1\nx_2_2 = 1\n")
        assert "\nx_1000_1000 = 1\ny_1 = 2\ny_2 = 1\nz_2 = 2\n" in out
        assert out.endswith("\nz_1000 = 1000\nverified: all residuals zero\n")
        assert out.count("\n") == SystemSpec(
            2, 1000, CoefficientSchedule("allprimespair")).var_count + 1


class TestMonoSearch:
    def test_finds_solution(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt", "1 0\n2 0\n3 0\n4 0\n")
        code = main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "4"])
        assert code == 0
        assert capsys.readouterr().out == "solution: 1 1 2\ncolour: 0\n"

    def test_log2parity_blocks_schur_on_small_range(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        code = main(["mono-search", "--matrix", matrix,
                     "--colouring", "log2parity", "--ground", "4"])
        assert code == 1
        assert capsys.readouterr().out == "no monochromatic solution\n"

    def test_distinct_and_fractional_ground(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        code = main(["mono-search", "--matrix", matrix,
                     "--colouring", "log2parity", "--ground", "8,2",
                     "--distinct"])
        # ground {1/2,...,4}; parity classes hold e.g. 1/2+3/2=2 (all e odd)
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("solution: ")

    def test_budget_exceeded(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt",
                          "".join(f"{i} 0\n" for i in range(1, 11)))
        code = main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "10",
                     "--budget", "10"])
        assert code == 2
        assert "budget" in capsys.readouterr().err

    def test_budget_checked_before_the_ground_set_is_listed(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 -2\n")
        start = time.perf_counter()
        code = main(["mono-search", "--matrix", matrix,
                     "--colouring", "log2parity", "--ground", "1000000000"])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert capsys.readouterr().err == (
            "error: search space exceeds budget of 100000000 candidate tuples\n")

    def test_file_colouring_on_a_huge_slice(self, tmp_path, capsys):
        # only the coloured values that lie in the slice are searched
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt", "3/2 0\n1/2 0\n1 1\n7/3 0\n")
        start = time.perf_counter()
        code = main(["mono-search", "--matrix", matrix, "--colouring",
                     f"file:{colouring}", "--ground", "1000000000,2"])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert capsys.readouterr().out == "no monochromatic solution\n"

    @pytest.mark.parametrize("row,ground,out", [
        # the solved value 0 is in no class
        ("1", "100000000", "no monochromatic solution\n"),
        # the all-zero column takes the class's first element
        ("0", "100000000,3", "solution: 1/3\ncolour: 0\n"),
    ])
    def test_one_column_on_a_huge_slice(self, tmp_path, capsys, row, ground, out):
        # nothing is enumerated, so no class of 10^8 values is listed
        matrix = write(tmp_path, "m.txt", row + "\n")
        start = time.perf_counter()
        code = main(["mono-search", "--matrix", matrix, "--colouring",
                     "log2parity", "--ground", ground])
        assert time.perf_counter() - start < 1
        assert code == (0 if out.startswith("solution") else 1)
        assert capsys.readouterr().out == out

    def test_memory_does_not_grow_with_the_colour_labels(self, tmp_path, capsys):
        # the classes are grouped by colour, not held in a list indexed by it
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        outs = []
        for label in (1, 4_000_000):
            colouring = write(tmp_path, "c.txt", f"1 {label}\n2 {label}\n3 0\n")
            argv = ["mono-search", "--matrix", matrix,
                    "--colouring", f"file:{colouring}", "--ground", "3"]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4 * 2**20, (label, peak)
            outs.append(capsys.readouterr().out.splitlines())
        assert outs == [["solution: 1 1 2", "colour: 1"],
                        ["solution: 1 1 2", "colour: 4000000"]]

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_below_one(self, budget, tmp_path, capsys):
        # checked before the matrix file is read
        assert main(["mono-search", "--matrix", str(tmp_path / "missing.txt"),
                     "--colouring", "log2parity", "--ground", "4",
                     f"--budget={budget}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --budget must be positive, got {budget}\n")

    def test_malformed_colouring_file(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt", "1 0 extra\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "4"]) == 2

    def test_unknown_colouring(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", "rainbow", "--ground", "4"]) == 2

    def test_colouring_file_with_a_non_integer_colour(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt", "2 0\n1 x\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "4"]) == 2
        assert capsys.readouterr() == ("", "error: expected 'value colour', got '1 x'\n")

    @pytest.mark.parametrize("text,error", [
        ("1/0 0\n1 0 extra\n", "zero denominator: '1/0'"),
        ("1 x\n1/0 0\n", "expected 'value colour', got '1 x'"),
        ("1/0 x\n", "zero denominator: '1/0'"),
        ("2 0\n1\n2/2 1\n", "expected 'value colour', got '1'"),
    ])
    def test_colouring_file_errors_come_in_text_order(self, tmp_path, capsys,
                                                      text, error):
        # each line's value is read between the checks of its field count
        # and of its colour
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt", text)
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "4"]) == 2
        assert capsys.readouterr() == ("", f"error: {error}\n")

    @pytest.mark.parametrize("text,built,outcome", [
        ("1 0\n# 5 1\n2/4 1\n\n-3 0\r\n7/3\t2\n", 4,
         Colouring.table([F(1), F(1, 2), F(-3), F(7, 3)], [0, 1, 0, 2])),
        ("", 0, Colouring.table([], [])),
        ("1 0\n2 0\n1 1\n", 3, "1 coloured twice"),
        ("1 0\n2/2 1\n", 2, "1 coloured twice"),
        ("1 0\n2 x\n3 0\n", 2, "expected 'value colour', got '2 x'"),
    ])
    def test_colouring_file_builds_each_value_once(self, tmp_path, token_reads,
                                                   text, built, outcome):
        # one Fraction per value read, by parse_rat, which Colouring.table
        # keeps; a repeated token is read again, as a colouring refuses it
        # anyway, and no token goes through the comma-list reader
        spec = "file:" + write(tmp_path, "c.txt", text)
        try:
            got = radokit.cli._parse_colouring(spec)
        except ValueError as e:
            got = str(e)
        assert (got, token_reads) == (outcome, {"tokens": [], "fractions": built})

    @pytest.mark.parametrize("text,line", [
        ("1 -1\n", "1 -1"),
        ("1 -1\n2 0\n", "1 -1"),
        ("1 +0\n", "1 +0"),
        ("2 1_0\n", "2 1_0"),
        ("1 -0\n", "1 -0"),
        ("1 " + "1" * 4301 + "\n", "1 " + "1" * 4301),
    ])
    def test_colour_is_a_string_of_decimal_digits(self, tmp_path, capsys,
                                                  text, line):
        # an integer token without a sign: no underscore, and a colour of
        # more than 4300 digits gets the same message
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt", text)
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "4"]) == 2
        assert capsys.readouterr() == (
            "", f"error: expected 'value colour', got {line!r}\n")

    @pytest.mark.parametrize("ground", ["5,abc", "x", "", "5,", "1.5", "1_0",
                                        "+8,+1", "8,+2", "1" * 4301])
    def test_ground_set_that_is_not_integers(self, tmp_path, capsys, ground):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", "log2parity", f"--ground={ground}"]) == 2
        assert capsys.readouterr() == (
            "", "error: ground set is num_bound or num_bound,denominator: "
                f"{ground!r}\n")

    def test_beutelspacher_brestovansky_colouring_rechecked_in_time(self, tmp_path):
        # 1..88 coloured 0 on [1, 8] and [81, 88] and 1 on [9, 80] has no
        # monochromatic solution of x1 + ... + x9 = x10 (88 = 10^2 - 10 - 2);
        # the sums of up to nine values are merged, not enumerated as tuples.
        # In a child process a slow search fails at the timeout
        matrix = write(tmp_path, "m.txt", "1 " * 9 + "-1\n")
        colouring = write(tmp_path, "c.txt", "".join(
            f"{x} {0 if x <= 8 or x >= 81 else 1}\n" for x in range(1, 89)))
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "radokit.cli", "mono-search", "--matrix", matrix,
             "--colouring", f"file:{colouring}", "--ground", "88",
             "--budget", str(10**30)],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=path))
        assert (done.returncode, done.stdout, done.stderr) == (
            1, "no monochromatic solution\n", "")


    def test_rado_number_witness_rechecked_on_the_default_budget(self, tmp_path,
                                                                 capsys):
        # x1 + ... + x6 = x7: the witness's classes hold 10 and 30 values,
        # 7.3 * 10^8 tuples of six columns, but 18840 merged-state walks
        matrix = write(tmp_path, "m.txt", "1 1 1 1 1 1 -1\n")
        assert main(["rado-number", "--matrix", matrix,
                     "--colours", "2", "--nmax", "41"]) == 0
        lines = capsys.readouterr().out.splitlines()
        colouring = write(tmp_path, "w.txt", "\n".join(lines[2:]) + "\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "40"]) == 1
        assert capsys.readouterr() == ("no monochromatic solution\n", "")

    def test_beutelspacher_brestovansky_colouring_on_the_default_budget(
            self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 " * 9 + "-1\n")
        colouring = write(tmp_path, "c.txt", "".join(
            f"{x} {0 if x <= 8 or x >= 81 else 1}\n" for x in range(1, 89)))
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "88"]) == 1
        assert capsys.readouterr() == ("no monochromatic solution\n", "")

    def test_deep_search_refused(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "0 " * 1500 + "1 -1\n")
        colouring = write(tmp_path, "c.txt", "1 0\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "1"]) == 2
        assert capsys.readouterr() == ("", "error: the search would enumerate "
                                       "1501 columns, more than the limit of 500\n")


class TestRadoNumber:
    def test_schur(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        code = main(["rado-number", "--matrix", matrix,
                     "--colours", "2", "--nmax", "10"])
        assert code == 0
        assert capsys.readouterr().out == (
            "rado number: 5\n"
            "witness colouring of 1..4:\n"
            "1 0\n2 1\n3 1\n4 0\n"
        )

    def test_survivor(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 1\n")
        code = main(["rado-number", "--matrix", matrix,
                     "--colours", "2", "--nmax", "6"])
        assert code == 1
        out = capsys.readouterr().out
        assert out.startswith("no rado number up to 6\n"
                              "surviving colouring of 1..6:\n")

    @pytest.mark.parametrize("row, nmax", [("4 4 -1", 64), ("2 4 2 -1", 64),
                                           ("-3 1 -3", 48)])
    def test_survivor_of_mostly_unconstrained_values(self, tmp_path, capsys,
                                                     row, nmax):
        # most values here lie in no solution, and undoing marks value by
        # value once took minutes; in a child process a hang fails the test
        # at the timeout instead of stalling the suite
        matrix = write(tmp_path, "m.txt", row + "\n")
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "radokit.cli", "rado-number", "--matrix", matrix,
             "--colours", "2", "--nmax", str(nmax)],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=path))
        assert done.returncode == 1, done.stderr
        lines = done.stdout.splitlines()
        assert lines[:2] == [f"no rado number up to {nmax}",
                             f"surviving colouring of 1..{nmax}:"]
        assert len(lines) == nmax + 2
        colouring = write(tmp_path, "w.txt", "\n".join(lines[2:]) + "\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", str(nmax)]) == 1
        assert capsys.readouterr().out == "no monochromatic solution\n"

    def test_witness_reusable_as_colouring_file(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        assert main(["rado-number", "--matrix", matrix,
                     "--colours", "2", "--nmax", "10"]) == 0
        witness_lines = capsys.readouterr().out.splitlines()[2:]
        colouring = write(tmp_path, "w.txt", "\n".join(witness_lines) + "\n")
        code = main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "4"])
        assert code == 1

    def test_bounds(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        assert main(["rado-number", "--matrix", matrix,
                     "--colours", "9", "--nmax", "10"]) == 2

    def test_deep_plans_refused(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 " * 1000 + "-1 " * 500 + "\n")
        assert main(["rado-number", "--matrix", matrix,
                     "--colours", "2", "--nmax", "30"]) == 2
        assert capsys.readouterr() == ("", "error: the search would enumerate "
                                       "1497 columns, more than the limit of 500\n")

    @pytest.mark.parametrize("m, number", [(m, m * m - m - 1) for m in range(3, 9)])
    def test_sum_equation_number_and_witness(self, tmp_path, capsys, m, number):
        # x_1 + ... + x_{m-1} = x_m has 2-colour Rado number m^2 - m - 1
        # (Beutelspacher-Brestovansky)
        matrix = write(tmp_path, "m.txt", "1 " * (m - 1) + "-1\n")
        start = time.perf_counter()
        code = main(["rado-number", "--matrix", matrix,
                     "--colours", "2", "--nmax", str(number)])
        assert time.perf_counter() - start < 2
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[:2] == [f"rado number: {number}",
                             f"witness colouring of 1..{number - 1}:"]
        assert len(lines) == number + 1
        colouring = write(tmp_path, "w.txt", "\n".join(lines[2:]) + "\n")
        # 10^12 covers even the |class|^(m-1) tuples: the witness for m = 8
        # has a class of 42 values, and 42^7 < 10^12
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", str(number - 1),
                     "--budget", str(10**12)]) == 1
        assert capsys.readouterr().out == "no monochromatic solution\n"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["cc-check"])
        assert exc.value.code == 2

    # each command's usage and missing-argument error, at 200 columns as in
    # the cli_corpus.json replay: each usage is one line there, where Python
    # 3.13's argparse would wrap an 80-column one at other places than 3.11's
    @pytest.mark.parametrize("command,usage,required", [
        ("cc-check", "[-h] --matrix MATRIX\n", "--matrix"),
        ("fe-check", "[-h] --matrix MATRIX [--strict]\n", "--matrix"),
        ("build-system",
         "[-h] --alpha ALPHA --depth DEPTH --schedule SCHEDULE [--out OUT]\n",
         "--alpha, --depth, --schedule"),
        ("build-iab",
         "[-h] --alpha ALPHA --depth DEPTH --schedule SCHEDULE [--out OUT]\n",
         "--alpha, --depth, --schedule"),
        ("membership", "[-h] --value VALUE --primes PRIMES [--scale SCALE]\n",
         "--value, --primes"),
        ("pigeonhole", "[-h] --m M --primes PRIMES --values VALUES\n",
         "--m, --primes, --values"),
        ("refute",
         "[-h] --alpha ALPHA --depth DEPTH --schedule SCHEDULE --primes PRIMES "
         "--y Y --nmax NMAX\n",
         "--alpha, --depth, --schedule, --primes, --y, --nmax"),
        ("nat-witness",
         "[-h] --alpha ALPHA --depth DEPTH --schedule SCHEDULE\n",
         "--alpha, --depth, --schedule"),
        ("mono-search",
         "[-h] --matrix MATRIX --colouring COLOURING --ground GROUND "
         "[--distinct] [--budget BUDGET]\n",
         "--matrix, --colouring, --ground"),
        ("rado-number", "[-h] --matrix MATRIX --colours COLOURS --nmax NMAX\n",
         "--matrix, --colours, --nmax"),
    ])
    def test_usage_and_missing_arguments(self, command, usage, required,
                                         monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert capsys.readouterr() == ("", (
            f"usage: radokit {command} {usage}radokit {command}: error: the "
            f"following arguments are required: {required}\n"))

    @pytest.mark.parametrize("commands,line", [
        (["build-system", "build-iab", "refute", "nat-witness"],
         "--schedule SCHEDULE qpow:Q | allprimes | qpowpair:Q | allprimespair "
         "| file:PATH"),
        (["cc-check", "fe-check", "mono-search", "rado-number"],
         "--matrix MATRIX matrix file"),
    ])
    def test_shared_options_print_one_help(self, commands, line, monkeypatch,
                                           capsys):
        monkeypatch.setenv("COLUMNS", "80")
        for command in commands:
            with pytest.raises(SystemExit):
                main([command, "--help"])
            assert line in " ".join(capsys.readouterr().out.split()), command

    def test_shared_options_declared_once(self):
        source = Path(radokit.cli.__file__).read_text()
        for option in ("--matrix", "--alpha", "--depth", "--schedule"):
            assert source.count(f'add_argument("{option}"') == 1, option

    def test_one_integer_reader(self):
        # every count option reads through rings._parse_int, and no user
        # text reaches int() in cli.py
        tree = ast.parse(Path(radokit.cli.__file__).read_text())
        types = [ast.unparse(node.value) for node in ast.walk(tree)
                 if isinstance(node, ast.keyword) and node.arg == "type"]
        assert types == ["_parse_int"] * 8
        assert not [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name) and node.func.id == "int"]


# each count option in a command line that reads it, "{}" standing for its token
COUNT_OPTIONS = [
    ("--alpha", ["build-system", "--alpha={}", "--depth=3", "--schedule=qpow:2"]),
    ("--depth", ["build-iab", "--alpha=1", "--depth={}", "--schedule=qpow:2"]),
    ("--scale", ["membership", "--value=1", "--primes=2", "--scale={}"]),
    ("--m", ["pigeonhole", "--m={}", "--primes=all", "--values=1,2"]),
    ("--nmax", ["refute", "--alpha=1", "--depth=2", "--schedule=qpow:3",
                "--primes=2", "--y=1", "--nmax={}"]),
    ("--budget", ["mono-search", "--matrix=m.txt", "--colouring=log2parity",
                  "--ground=8", "--budget={}"]),
    ("--colours", ["rado-number", "--matrix=m.txt", "--colours={}", "--nmax=5"]),
    ("--nmax", ["rado-number", "--matrix=m.txt", "--colours=2", "--nmax={}"]),
]


class TestCountOptions:
    """The count options read the integer tokens of --primes, --ground and
    qpow:Q: an optional minus sign, then decimal digits, surrounding
    whitespace ignored, at most 4300 digits."""

    @pytest.mark.parametrize("option,argv", COUNT_OPTIONS)
    @pytest.mark.parametrize("token", ["+3", "1_0", "+1_0", "3.0", "1" * 4301])
    def test_refused(self, option, argv, token, capsys):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(token) for arg in argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"\nradokit {argv[0]}: error: argument {option}: "
                            f"invalid int value: {token!r}\n")

    @pytest.mark.parametrize("option,argv", COUNT_OPTIONS)
    @pytest.mark.parametrize("token,value", [(" 3 ", 3), ("٣", 3), ("-0", 0)])
    def test_read(self, option, argv, token, value):
        args = radokit.cli._parse([arg.format(token) for arg in argv])
        assert getattr(args, option[2:]) == value


class TestRepeatedCalls:
    """main builds its parser once per process; no call may see another's
    arguments or defaults."""

    def test_flag_does_not_stick(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 0\n0 2\n")
        entries = ("row 1: first entry 1 at column 1\n"
                   "row 2: first entry 2 at column 2\n")
        assert main(["fe-check", "--matrix", matrix, "--strict"]) == 1
        assert capsys.readouterr().out == (
            entries + "strict first entries condition: fails\n")
        assert main(["fe-check", "--matrix", matrix]) == 0
        assert capsys.readouterr().out == (
            entries + "weak first entries condition: holds\n")

    def test_default_restored_after_explicit_value(self, tmp_path, capsys):
        argv = ["mono-search", "--matrix", write(tmp_path, "m.txt", "1 -2\n"),
                "--colouring", "log2parity", "--ground", "1000000000"]
        assert main(argv + ["--budget", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: search space exceeds budget of 1 candidate tuples\n")
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: search space exceeds budget of 100000000 candidate tuples\n")

    def test_usage_error_then_valid_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cc-check"])
        assert exc.value.code == 2
        assert "the following arguments are required: --matrix" in \
            capsys.readouterr().err
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        assert main(["cc-check", "--matrix", matrix]) == 0
        assert capsys.readouterr() == (
            "certificate:\nblock 1: 1 3\nblock 2: 2\nwitness 2: 1 0\n", "")

    def test_help_twice(self, capsys):
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] == _build_parser.__wrapped__()[0].format_help()
        assert "cc-check" in helps[0]

    def test_parser_built_once(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -3\n")
        for _ in range(3):
            assert main(["cc-check", "--matrix", matrix]) == 1
        assert _build_parser.cache_info().misses == 1
