import pytest

from radokit.cli import main
from radokit.linalg import format_matrix, parse_matrix
from radokit.systems import (
    CoefficientSchedule,
    SystemSpec,
    build_truncated_system,
)


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
        spec = SystemSpec(2, 3, CoefficientSchedule.qpowpair(3))
        assert parse_matrix(out_file.read_text()) == build_truncated_system(spec)

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


class TestRefute:
    def test_obstruction(self, capsys):
        code = main(["refute", "--alpha", "1", "--depth", "2",
                     "--schedule", "qpow:2", "--primes", "",
                     "--y", "1", "--nmax", "5"])
        assert code == 0
        assert capsys.readouterr().out == (
            "obstruction at n=2: d-combination 1/4 is outside the subring\n"
        )

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

    def test_malformed_colouring_file(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        colouring = write(tmp_path, "c.txt", "1 0 extra\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", f"file:{colouring}", "--ground", "4"]) == 2

    def test_unknown_colouring(self, tmp_path, capsys):
        matrix = write(tmp_path, "m.txt", "1 1 -1\n")
        assert main(["mono-search", "--matrix", matrix,
                     "--colouring", "rainbow", "--ground", "4"]) == 2


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


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["cc-check"])
        assert exc.value.code == 2
