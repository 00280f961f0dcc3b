"""The console gate: every case of the CI console-script step, run in-process
through cli.main in a scratch directory, with the step's byte compares,
output checks and exit codes. test_cli.test_file_commands_name_their_encoding
runs `python -m spmvsim.cli`, through the module's __main__ guard, and CI
makes one smoke call of the installed script, whose target is cli.entry."""

import sys
from pathlib import Path

import pytest

from spmvsim import (Fixture, reference_fixture, spmv_sorted_oracle,
                     write_fixture)
from spmvsim.cli import entry, main


@pytest.fixture
def spmvsim(tmp_path, monkeypatch, capsys):
    """Run one command in tmp_path, as the shell would run the installed
    script: its exit code, stdout and stderr."""
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err
    return run


def ok(spmvsim, *argv) -> str:
    """Run a command that must succeed; its stdout."""
    code, out, err = spmvsim(*argv)
    assert (code, err) == (0, ""), argv
    return out


def convert(spmvsim, src, dest, fmt):
    ok(spmvsim, "convert", "--in", src, "--out", dest, "--format", fmt)


def same_bytes(*pairs):
    """cmp of each pair of files."""
    for a, b in pairs:
        assert Path(a).read_bytes() == Path(b).read_bytes(), (a, b)


def mm_round_trip(spmvsim, name):
    """name.fx to Matrix Market, back to a fixture and out again: both
    Matrix Market files and both x files must be byte for byte the same."""
    convert(spmvsim, f"{name}.fx", f"{name}.mtx", "matrixmarket")
    convert(spmvsim, f"{name}.mtx", f"{name}-back.fx", "fixture")
    convert(spmvsim, f"{name}-back.fx", f"{name}-back.mtx", "matrixmarket")
    same_bytes((f"{name}.mtx", f"{name}-back.mtx"),
               (f"{name}.x.mtx", f"{name}-back.x.mtx"))


@pytest.fixture
def ref_fx(spmvsim):
    ok(spmvsim, "gen", "--reference", "--out", "ref.fx")
    return "ref.fx"


def test_reference_runs_and_verifies(spmvsim, ref_fx):
    ok(spmvsim, "run", "--fixture", ref_fx, "--mode", "dist", "--ranks", "3",
       "--trace")
    ok(spmvsim, "verify", "--fixture", ref_fx, "--ranks-list", "1,2,3,5",
       "--json")


@pytest.mark.parametrize("sizes, took", [
    # explicit sizes gather the block lengths first, then take allgather
    # when they agree and allgatherv when they differ
    (["--row-sizes", "30,2", "--col-sizes", "18,18"],
     "gather-path-prediction: took allgather,"),
    (["--col-sizes", "20,16"], "gather-path-prediction: took allgatherv,"),
])
def test_explicit_sizes_take_the_predicted_gather(spmvsim, ref_fx, sizes,
                                                  took):
    assert took in ok(spmvsim, "verify", "--fixture", ref_fx, "--ranks-list",
                      "2", *sizes)


def test_reference_round_trips_through_matrix_market(spmvsim, ref_fx):
    mm_round_trip(spmvsim, "ref")
    ok(spmvsim, "run", "--fixture", "ref-back.fx", "--mode", "dist",
       "--ranks", "3")


def test_declined_text_reads_to_the_same_matrix(spmvsim, ref_fx):
    # text the number codec declines (values written %e, a comment among
    # the entries) is read a line at a time to the same matrix, and a bad
    # entry line is a data error that names its line
    convert(spmvsim, ref_fx, "ref.mtx", "matrixmarket")
    head, size, *body = Path("ref.mtx").read_text().splitlines()
    body = [" ".join(b.split()[:2] + ["%.16e" % float(b.split()[2])])
            for b in body]
    body.insert(len(body) // 2, "% a comment among the entries")
    lines = [head, size, *body]
    Path("declined.mtx").write_text("\n".join(lines) + "\n")
    Path("declined.x.mtx").write_bytes(Path("ref.x.mtx").read_bytes())
    convert(spmvsim, "declined.mtx", "declined.fx", "fixture")
    convert(spmvsim, "declined.fx", "declined-back.mtx", "matrixmarket")
    same_bytes(("ref.mtx", "declined-back.mtx"),
               ("ref.x.mtx", "declined-back.x.mtx"))
    lines[4] = "7 8 x"  # sed '5s/.*/7 8 x/'
    Path("bad.mtx").write_text("\n".join(lines) + "\n")
    Path("bad.x.mtx").write_bytes(Path("ref.x.mtx").read_bytes())
    code, _, err = spmvsim("convert", "--in", "bad.mtx", "--out", "bad.fx",
                           "--format", "fixture")
    assert code == 2
    assert "line " in err


def test_entries_left_to_repr_round_trip(spmvsim):
    # a non-integer, -0.0, 2**53 + 2, 1e16 (written 1e+16), 1e-300
    odd = [0.1, -0.0, 2.0**53 + 2, 1e16, 1e-300]
    fx = Fixture(M=2, N=5, row_ptr=[0, 3, 5], col_idx=[0, 2, 4, 1, 3],
                 values=odd, x=odd, z=[0.0, 0.0])
    fx.z = spmv_sorted_oracle(fx.matrix(), fx.x_vector()).values
    write_fixture(fx, "odd.fx")
    mm_round_trip(spmvsim, "odd")


def test_integer_and_real_files(spmvsim):
    # an integer file and the same matrix as real, its values spelled 4 and
    # 4.0, convert to the same fixture; a real file holding 0.5, which the
    # number codec declines, round-trips byte for byte
    head = "%%MatrixMarket matrix coordinate {} general\n3 3 3\n"
    body = "1 1 {}\n2 3 {}\n3 2 {}\n"
    for name, field, values in (("int", "integer", ("4", "-7", "4")),
                                ("real", "real", ("4", "-7.0", "4.0")),
                                ("half", "real", ("4.0", "-7.0", "0.5"))):
        Path(f"{name}.mtx").write_text(head.format(field)
                                       + body.format(*values))
    Path("half.x.mtx").write_text(
        "%%MatrixMarket matrix array real general\n3 1\n1.0\n-2.0\n3.0\n")
    convert(spmvsim, "int.mtx", "int.fx", "fixture")
    convert(spmvsim, "real.mtx", "real.fx", "fixture")
    same_bytes(("int.fx", "real.fx"))
    convert(spmvsim, "half.mtx", "half.fx", "fixture")
    convert(spmvsim, "half.fx", "half-back.mtx", "matrixmarket")
    same_bytes(("half.mtx", "half-back.mtx"),
               ("half.x.mtx", "half-back.x.mtx"))


def test_generated_fixture_over_several_blocks(spmvsim):
    # 62,798 entries: at K = 1 the kernel sums more than one row block, and
    # the importer's oracle sums the recomputed z over several
    ok(spmvsim, "gen", "--rows", "2000", "--cols", "1500", "--row-fill", "64",
       "--seed", "3", "--out", "gen.fx")
    ok(spmvsim, "run", "--fixture", "gen.fx", "--mode", "seq")
    ok(spmvsim, "run", "--fixture", "gen.fx", "--mode", "dist", "--ranks",
       "3", "--trace")
    ok(spmvsim, "verify", "--fixture", "gen.fx", "--ranks-list", "1,3,8")
    mm_round_trip(spmvsim, "gen")


def test_exit_codes(spmvsim):
    # 1 for a stored z off in one entry, 2 for a cell stored twice or a row
    # whose columns do not increase
    off = reference_fixture()
    off.z[0] += 1.0
    write_fixture(off, "off.fx")
    for name, cols in (("dup", [1, 1]), ("unsorted", [1, 0])):
        write_fixture(Fixture(M=2, N=2, row_ptr=[0, 2, 2], col_idx=cols,
                              values=[1.0, 2.0], x=[1.0, 1.0], z=[3.0, 0.0]),
                      f"{name}.fx")
    for argv, code in ((["verify", "--fixture", "off.fx"], 1),
                       (["verify", "--fixture", "dup.fx"], 2),
                       (["run", "--fixture", "unsorted.fx"], 2),
                       (["verify", "--fixture", "unsorted.fx"], 2)):
        assert spmvsim(*argv)[0] == code, argv


@pytest.mark.parametrize("argv, code", [
    (["gen", "--reference", "--out", "ref.fx"], 0),
    (["run", "--fixture", "missing.fx"], 2),
])
def test_script_entry_exits_with_the_command_code(spmvsim, monkeypatch, argv,
                                                  code):
    # the installed script calls entry(), which reads sys.argv
    monkeypatch.setattr(sys, "argv", ["spmvsim", *argv])
    with pytest.raises(SystemExit) as exc:
        entry()
    assert exc.value.code == code
