"""Command-line behavior: verbatim verdict lines and exit codes."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spmvsim
from conftest import assert_fixture_equal
from spmvsim import (MAX_RANKS, Fixture, GenParams, companion_x_path,
                     export_matrix_market, generate, read_fixture,
                     reference_fixture, write_fixture)
from spmvsim.cli import main

SUCCESS = "Succeeded in computing y = Ax"


def write_ref(tmp_path, mutate=None):
    fx = reference_fixture()
    if mutate is not None:
        mutate(fx)
    path = tmp_path / "fixture.fx"
    write_fixture(fx, path)
    return path


def test_gen_and_run_sequential(tmp_path, capsys):
    out = tmp_path / "f.fx"
    assert main(["gen", "--rows", "32", "--cols", "36", "--nnz", "50",
                 "--seed", "1", "--out", str(out)]) == 0
    assert read_fixture(out).nnz == 50
    assert main(["run", "--fixture", str(out), "--mode", "seq"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == SUCCESS


def test_gen_reference(tmp_path, capsys):
    out = tmp_path / "ref.fx"
    assert main(["gen", "--reference", "--out", str(out)]) == 0
    assert_fixture_equal(read_fixture(out), reference_fixture())


def test_gen_reference_conflicts_with_params(tmp_path, capsys):
    assert main(["gen", "--reference", "--rows", "4",
                 "--out", str(tmp_path / "x.fx")]) == 2


@pytest.mark.parametrize("flag, value", [
    ("--seed", "9"), ("--value-range", "2:3"), ("--x-range", "4:4")])
def test_gen_reference_conflicts_with_value_flags(tmp_path, capsys, flag,
                                                  value):
    # the reference instance is fixed, so these flags would change nothing
    out = tmp_path / "x.fx"
    assert main(["gen", "--reference", flag, value, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: --reference cannot be combined with generation parameters\n")
    assert not out.exists()


def test_gen_infeasible_nnz(tmp_path, capsys):
    code = main(["gen", "--rows", "2", "--cols", "2", "--nnz", "9",
                 "--out", str(tmp_path / "x.fx")])
    assert code == 2
    assert "nnz exceeds capacity" in capsys.readouterr().err


def test_gen_requires_density_control(tmp_path, capsys):
    assert main(["gen", "--rows", "2", "--cols", "2",
                 "--out", str(tmp_path / "x.fx")]) == 2
    assert main(["gen", "--rows", "2", "--cols", "2", "--nnz", "1",
                 "--row-fill", "1", "--out", str(tmp_path / "x.fx")]) == 2


def test_gen_custom_ranges(tmp_path):
    out = tmp_path / "r.fx"
    assert main(["gen", "--rows", "3", "--cols", "3", "--row-fill", "3",
                 "--value-range", "2:2", "--x-range", "5:5",
                 "--out", str(out)]) == 0
    fx = read_fixture(out)
    assert set(fx.values.tolist()) <= {2.0}
    assert set(fx.x.tolist()) == {5.0}


def test_run_distributed_modes(tmp_path, capsys):
    path = write_ref(tmp_path)
    for ranks in ("1", "5", "8"):
        assert main(["run", "--fixture", str(path), "--mode", "dist",
                     "--ranks", ranks]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == SUCCESS


def test_run_rejects_bad_rank_count(tmp_path, capsys):
    path = write_ref(tmp_path)
    for ranks in (0, MAX_RANKS + 1):
        assert main(["run", "--fixture", str(path), "--mode", "dist",
                     "--ranks", str(ranks)]) == 2
        assert f"1..{MAX_RANKS}" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--ranks", "7"], ["--trace"],
                                   ["--trace", "--ranks", "7"]])
def test_run_seq_refuses_distributed_flags(tmp_path, capsys, flags):
    path = write_ref(tmp_path)
    assert main(["run", "--fixture", str(path), "--mode", "seq",
                 *flags]) == 2
    assert capsys.readouterr() == (
        "", "error: --ranks and --trace apply only to --mode dist\n")


def test_unset_flags_keep_their_defaults(tmp_path, capsys):
    out = tmp_path / "g.fx"
    assert main(["gen", "--rows", "5", "--cols", "6", "--nnz", "9",
                 "--out", str(out)]) == 0
    assert_fixture_equal(read_fixture(out), generate(GenParams(
        M=5, N=6, target_nnz=9, value_range=(1, 11), x_range=(1, 9),
        seed=0)))
    capsys.readouterr()
    assert main(["run", "--fixture", str(out), "--mode", "dist",
                 "--trace"]) == 0
    trace = capsys.readouterr().out
    assert "rank=0" in trace and "rank=1" not in trace  # one rank
    assert main(["convert", "--in", str(out), "--out",
                 str(tmp_path / "g.mtx"), "--format", "matrixmarket"]) == 0
    companion_x_path(tmp_path / "g.mtx").unlink()
    assert main(["convert", "--in", str(tmp_path / "g.mtx"), "--out",
                 str(tmp_path / "back.fx"), "--format", "fixture"]) == 0
    assert (read_fixture(tmp_path / "back.fx").metadata["x_source"]
            == "generated seed=0")


def test_run_corrupted_fixture_fails_with_norm(tmp_path, capsys):
    def corrupt(fx):
        fx.z[0] += 1.0

    path = write_ref(tmp_path, corrupt)
    assert main(["run", "--fixture", str(path), "--mode", "seq"]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "Error in computing y = Ax, with norm = 1"
    assert main(["run", "--fixture", str(path), "--mode", "dist",
                 "--ranks", "3"]) == 1


def test_run_trace_output(tmp_path, capsys):
    path = write_ref(tmp_path)
    assert main(["run", "--fixture", str(path), "--mode", "dist",
                 "--ranks", "2", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "seq=0 op=exscan_sum rank=0 len=1"
    assert lines[-1] == SUCCESS
    assert any("op=allgather" in ln for ln in lines)


def test_run_missing_file(tmp_path, capsys):
    assert main(["run", "--fixture", str(tmp_path / "nope.fx")]) == 2


def test_verify_reference_all_pass(tmp_path, capsys):
    path = write_ref(tmp_path)
    assert main(["verify", "--fixture", str(path),
                 "--ranks-list", "1,2,3,5,8"]) == 0
    out = capsys.readouterr().out
    assert "[sequential]" in out
    assert "[distributed size=5]" in out
    assert "FAIL" not in out


def test_verify_bad_layout_flag(tmp_path, capsys):
    path = write_ref(tmp_path)
    # a wrong sum and a wrong number of sizes
    for sizes in ("16,15", "32"):
        assert main(["verify", "--fixture", str(path), "--ranks-list", "2",
                     "--row-sizes", sizes]) == 1
        out = capsys.readouterr().out
        assert "FAIL layout-sums" in out


def test_verify_corrupt_fixture_fails(tmp_path, capsys):
    def corrupt(fx):
        fx.values[0] += 1.0

    path = write_ref(tmp_path, corrupt)
    assert main(["verify", "--fixture", str(path), "--ranks-list", "1,3"]) == 1
    assert "FAIL residual-within-tolerance" in capsys.readouterr().out


def test_verify_json(tmp_path, capsys):
    path = write_ref(tmp_path)
    assert main(["verify", "--fixture", str(path), "--ranks-list", "1,5",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["section"] for s in payload] == [
        "sequential", "distributed size=1", "distributed size=5"]
    assert all(s["overall"] for s in payload)


def test_verify_repeated_rank_count_prints_each_section(tmp_path, capsys):
    path = write_ref(tmp_path)
    assert main(["verify", "--fixture", str(path), "--ranks-list", "2,2"]) == 0
    out = capsys.readouterr().out
    assert out.count("[distributed size=2]") == 2
    assert out.count("overall: PASS") == 3


def test_verify_rejects_bad_ranks_list(tmp_path, capsys):
    path = write_ref(tmp_path)
    for ranks in ("0,2", f"2,{MAX_RANKS + 1}"):
        assert main(["verify", "--fixture", str(path),
                     "--ranks-list", ranks]) == 2
        assert f"1..{MAX_RANKS}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--mode", "seq"],
    ["run", "--mode", "dist", "--ranks", "2"],
    ["verify"],
])
def test_duplicate_cell_file_is_a_data_error(tmp_path, capsys, argv):
    # the kernel would sum the two entries to the stored z, so only the
    # structural check tells this file apart from a valid one
    fx = Fixture(M=2, N=2, row_ptr=[0, 2, 2], col_idx=[1, 1],
                 values=[1.0, 2.0], x=[1.0, 1.0], z=[3.0, 0.0])
    path = tmp_path / "dup.fx"
    write_fixture(fx, path)
    assert main([argv[0], "--fixture", str(path), *argv[1:]]) == 2
    assert "duplicate cell (0, 1)" in capsys.readouterr().err


def test_short_array_file_is_a_data_error(tmp_path, capsys):
    def shorten(fx):
        fx.z = fx.z[:-1]

    path = write_ref(tmp_path, shorten)
    assert main(["run", "--fixture", str(path)]) == 2
    assert "z has 31 entries, expected 32" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["values", "x", "z"])
def test_non_finite_file_is_a_data_error(tmp_path, capsys, field):
    def poison(fx):
        getattr(fx, field)[0] = float("nan")

    path = write_ref(tmp_path, poison)
    assert main(["run", "--fixture", str(path)]) == 2
    assert f"non-finite {field}[0] = nan" in capsys.readouterr().err


def test_convert_round_trip(tmp_path, capsys):
    src = write_ref(tmp_path)
    mtx = tmp_path / "ref.mtx"
    back = tmp_path / "back.fx"
    assert main(["convert", "--in", str(src), "--out", str(mtx),
                 "--format", "matrixmarket"]) == 0
    assert main(["convert", "--in", str(mtx), "--out", str(back),
                 "--format", "fixture"]) == 0
    assert_fixture_equal(read_fixture(back), reference_fixture(),
                         include_metadata=False)


@pytest.mark.parametrize("flags", [
    ["--x", "{tmp}/nonexistent.x.mtx"], ["--x-seed", "5"],
    ["--x", "{tmp}/nonexistent.x.mtx", "--x-seed", "5"]])
def test_convert_fixture_input_refuses_x_flags(tmp_path, capsys, flags):
    src = write_ref(tmp_path)
    out = tmp_path / "o.mtx"
    assert main(["convert", "--in", str(src), "--out", str(out),
                 "--format", "matrixmarket",
                 *(f.format(tmp=tmp_path) for f in flags)]) == 2
    assert capsys.readouterr().err == (
        "error: --x and --x-seed apply only to Matrix Market input\n")
    assert not out.exists()


def bare_matrix_market(tmp_path):
    """The reference matrix as Matrix Market text with no companion x."""
    mtx = tmp_path / "bare.mtx"
    export_matrix_market(reference_fixture(), mtx)
    companion_x_path(mtx).unlink()
    return mtx


def test_convert_matrix_market_takes_x_from_named_file(tmp_path):
    mtx = bare_matrix_market(tmp_path)
    other = reference_fixture()
    x = other.x = np.arange(1.0, other.N + 1)
    export_matrix_market(other, tmp_path / "other.mtx")
    out = tmp_path / "o.fx"
    assert main(["convert", "--in", str(mtx), "--out", str(out),
                 "--format", "fixture", "--x",
                 str(tmp_path / "other.x.mtx")]) == 0
    assert "meta x_source companion-file\n" in out.read_text()
    assert read_fixture(out).x.tolist() == x.tolist()


def test_convert_matrix_market_generates_x_from_seed(tmp_path):
    mtx = bare_matrix_market(tmp_path)
    out = tmp_path / "o.fx"
    assert main(["convert", "--in", str(mtx), "--out", str(out),
                 "--format", "fixture", "--x-seed", "5"]) == 0
    assert "meta x_source generated seed=5\n" in out.read_text()
    expected = np.random.default_rng(5).integers(
        1, 10, size=reference_fixture().N)
    assert read_fixture(out).x.tolist() == expected.tolist()


@pytest.mark.parametrize("named", [False, True], ids=["companion", "--x"])
def test_convert_refuses_a_seed_for_an_x_read_from_a_file(tmp_path, capsys,
                                                           named):
    mtx = tmp_path / "ref.mtx"
    export_matrix_market(reference_fixture(), mtx)
    x_flag = ["--x", str(companion_x_path(mtx))] if named else []
    out = tmp_path / "o.fx"
    assert main(["convert", "--in", str(mtx), "--out", str(out),
                 "--format", "fixture", *x_flag, "--x-seed", "3"]) == 2
    assert capsys.readouterr().err == (
        f"error: {companion_x_path(mtx)}: x is read from this file, so x "
        "seed 3 would go unused\n")
    assert not out.exists()


def test_convert_matrix_market_names_a_missing_x_file(tmp_path, capsys):
    mtx = bare_matrix_market(tmp_path)
    missing = tmp_path / "nonexistent.x.mtx"
    assert main(["convert", "--in", str(mtx), "--out",
                 str(tmp_path / "o.fx"), "--format", "fixture",
                 "--x", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: {missing}: no such file\n"


def test_convert_rejects_symmetric(tmp_path, capsys):
    bad = tmp_path / "sym.mtx"
    bad.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                   "2 2 1\n1 1 1.0\n")
    assert main(["convert", "--in", str(bad), "--out",
                 str(tmp_path / "o.fx"), "--format", "fixture"]) == 2
    assert "symmetric" in capsys.readouterr().err


def test_convert_unrecognized_input(tmp_path, capsys):
    bad = tmp_path / "junk.txt"
    bad.write_text("hello\n")
    assert main(["convert", "--in", str(bad), "--out",
                 str(tmp_path / "o.fx"), "--format", "fixture"]) == 2


@pytest.mark.parametrize("name, head", [
    ("bad.fx", "spmv-fixture-v1\nrows 1\n"),
    ("bad.mtx", "%%MatrixMarket matrix coordinate real general\n1 1 1\n"),
], ids=["fixture", "matrixmarket"])
def test_convert_names_a_file_that_is_not_text(tmp_path, capsys, name, head):
    # the first line is fine and a byte that is not UTF-8 comes later: the
    # reader's error, which names the file, not a bare codec error
    path = tmp_path / name
    path.write_bytes(head.encode() + b"\xff\n")
    assert main(["convert", "--in", str(path), "--out",
                 str(tmp_path / "o.fx"), "--format", "fixture"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: not text (invalid start byte at byte {len(head)})\n")


def test_gen_rejects_a_range_without_colon(tmp_path, capsys):
    assert main(["gen", "--rows", "2", "--cols", "2", "--nnz", "1",
                 "--value-range", "5", "--out", str(tmp_path / "x.fx")]) == 2
    assert capsys.readouterr().err == (
        "error: --value-range must be two integers LO:HI, got '5'\n")


@pytest.mark.parametrize("argv, message", [
    (["verify", "--ranks-list", "a"],
     "--ranks-list must be comma-separated integers, got 'a'"),
    (["verify", "--row-sizes", "16,x"],
     "--row-sizes must be comma-separated integers, got '16,x'"),
    (["verify", "--col-sizes", "1.5,34.5"],
     "--col-sizes must be comma-separated integers, got '1.5,34.5'"),
    (["gen", "--rows", "2", "--cols", "2", "--nnz", "1", "--x-range", "a:b"],
     "--x-range must be two integers LO:HI, got 'a:b'"),
], ids=["ranks-list", "row-sizes", "col-sizes", "x-range"])
def test_integer_flags_name_themselves(tmp_path, capsys, argv, message):
    path = write_ref(tmp_path)
    out = tmp_path / "g.fx"
    extra = (["--fixture", str(path)] if argv[0] == "verify"
             else ["--out", str(out)])
    assert main([*argv, *extra]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("sizes", [["--rows", "2"], ["--cols", "2"], []])
def test_gen_requires_rows_and_cols(tmp_path, capsys, sizes):
    assert main(["gen", *sizes, "--nnz", "1",
                 "--out", str(tmp_path / "x.fx")]) == 2
    assert capsys.readouterr().err == (
        "error: --rows and --cols are required (or use --reference)\n")
    assert not (tmp_path / "x.fx").exists()


@pytest.mark.parametrize("argv", [
    ["convert", "--in", "{tmp}/tall.mtx", "--out", "{tmp}/o.fx",
     "--format", "fixture"],
    ["gen", "--rows", str(2**59), "--cols", "1", "--row-fill", "0",
     "--out", "{tmp}/g.fx"],
])
def test_sizes_too_large_to_allocate_are_a_data_error(tmp_path, capsys, argv):
    # 2**59 x 1 passes the importer's cell bound, but its 2**59 + 1 row
    # pointers take 4 EiB (2**62 bytes), more than current 64-bit hardware
    # can map for one process (at most 2**57 bytes), so the request is
    # refused at once without committing memory
    (tmp_path / "tall.mtx").write_text(
        f"%%MatrixMarket matrix coordinate real general\n{2**59} 1 0\n")
    assert main([a.format(tmp=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# sha256 of stdout on the reference fixture; a change to any of these bytes
# is a change to the program's observable output
GOLDEN_STDOUT = {
    "run --mode dist --ranks 3 --trace":
        "d548954bfa8b8658b059c635c50d9f414b1a1ca807bdc34647c29d8d606de746",
    "run --mode dist --ranks 5 --trace":
        "398f464a033569b2f408eaa46392e04fa50dc0cdfdd114396e4403d9a7711b54",
    "verify":
        "0f88957f121dae06956b7ff68ca02b64e8cb4f8768738af51a89e2e0fbf826ab",
    "verify --json":
        "db33feb9eb0e16bcc63e7b237a503daeb32ba43d2ea16a24be891aba257bd31c",
    "verify --ranks-list 2 --row-sizes 0,32 --col-sizes 10,26":
        "ade27a933d6629f212a68d2c81739452ee7edf6b4c2f2579f95e43f409373311",
}


@pytest.mark.parametrize("command", GOLDEN_STDOUT)
def test_stdout_bytes_are_pinned(tmp_path, capsys, command):
    argv = command.split()
    path = write_ref(tmp_path)
    assert main([argv[0], "--fixture", str(path), *argv[1:]]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == GOLDEN_STDOUT[command]


def test_file_commands_name_their_encoding(tmp_path):
    """Every file the CLI reads or writes is opened as UTF-8, so no command
    depends on the locale's encoding."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(spmvsim.__file__).resolve().parents[1]))
    for argv in (["gen", "--reference", "--out", "ref.fx"],
                 ["convert", "--in", "ref.fx", "--out", "ref.mtx",
                  "--format", "matrixmarket"],
                 ["convert", "--in", "ref.mtx", "--out", "back.fx",
                  "--format", "fixture"],
                 ["run", "--fixture", "back.fx", "--mode", "dist",
                  "--ranks", "3"]):
        done = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding",
             "-W", "error::EncodingWarning", "-m", "spmvsim.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, ""), argv
