"""Canonical fixture files and Matrix Market interop."""

import re
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import NON_INTEGER, assert_fixture_equal, csr_matrices
from spmvsim import fixture_io
from spmvsim import (
    FORMAT_HEADER,
    Fixture,
    FixtureFormatError,
    FixtureValidationError,
    GenParams,
    companion_x_path,
    export_matrix_market,
    generate,
    import_matrix_market,
    read_fixture,
    reference_fixture,
    spmv_sorted_oracle,
    validate_fixture,
    verify_sequential,
    write_fixture,
)


def test_round_trip_reference(tmp_path, ref):
    path = tmp_path / "ref.fx"
    write_fixture(ref, path)
    back = read_fixture(path)
    assert_fixture_equal(back, ref)


def test_round_trip_generated(tmp_path):
    for seed in range(5):
        fx = generate(GenParams(M=11, N=13, target_nnz=25, seed=seed))
        path = tmp_path / f"g{seed}.fx"
        write_fixture(fx, path)
        assert_fixture_equal(read_fixture(path), fx)


def test_round_trip_empty_matrix(tmp_path):
    fx = generate(GenParams(M=3, N=3, row_fill=0, seed=0))
    path = tmp_path / "empty.fx"
    write_fixture(fx, path)
    assert_fixture_equal(read_fixture(path), fx)


def test_file_shape(tmp_path, ref):
    path = tmp_path / "ref.fx"
    write_fixture(ref, path)
    lines = path.read_text().splitlines()
    assert lines[0] == FORMAT_HEADER
    assert lines[1] == "rows 32"
    assert lines[2] == "cols 36"
    assert lines[3] == "nnz 49"
    keys = [ln.split()[0] for ln in lines[4:]]
    assert keys == ["meta", "rowptr", "colidx", "values", "x", "z"]
    # array lines carry explicit lengths
    assert lines[5].startswith("rowptr 33 0 1 1 2 6")
    assert lines[7].startswith("values 49 8.0 3.0")


def test_metadata_survives_verbatim(tmp_path):
    fx = generate(GenParams(M=4, N=4, row_fill=1, seed=8))
    fx.metadata["note"] = "spaces and  double  spaces survive"
    path = tmp_path / "meta.fx"
    write_fixture(fx, path)
    assert read_fixture(path).metadata["note"] == \
        "spaces and  double  spaces survive"


def test_missing_header_rejected(tmp_path):
    path = tmp_path / "bad.fx"
    path.write_text("rows 1\n")
    with pytest.raises(FixtureFormatError, match="header"):
        read_fixture(path)


def test_truncated_array_rejected(tmp_path, ref):
    path = tmp_path / "trunc.fx"
    write_fixture(ref, path)
    lines = path.read_text().splitlines()
    # drop the last token of the values line but keep the declared length
    idx = next(i for i, ln in enumerate(lines) if ln.startswith("values"))
    lines[idx] = lines[idx].rsplit(" ", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureFormatError, match="expected 49 values, got 48"):
        read_fixture(path)


def test_count_disagreeing_with_sizes_rejected(tmp_path, ref):
    # declared nnz 50 with 49 stored values must not parse
    path = tmp_path / "nnz.fx"
    write_fixture(ref, path)
    text = path.read_text().replace("nnz 49", "nnz 50")
    path.write_text(text)
    with pytest.raises(FixtureFormatError, match="expected 50"):
        read_fixture(path)


def test_unknown_field_rejected_with_line_number(tmp_path, ref):
    path = tmp_path / "unknown.fx"
    write_fixture(ref, path)
    path.write_text(path.read_text() + "bogus 1 2\n")
    with pytest.raises(FixtureFormatError, match="line 11.*bogus"):
        read_fixture(path)


@pytest.mark.parametrize("lineno, key, message", [
    (8, "values", "line 8: values: missing length"),
    (5, "meta", "line 5: meta: missing key"),
])
def test_bare_key_line_rejected(tmp_path, ref, lineno, key, message):
    # the line keeps its key, with nothing but blanks after it
    path = tmp_path / "bare.fx"
    write_fixture(ref, path)
    lines = path.read_text().splitlines()
    lines[lineno - 1] = key + "  "
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureFormatError) as exc:
        read_fixture(path)
    assert str(exc.value) == message


def test_missing_field_rejected(tmp_path, ref):
    path = tmp_path / "missing.fx"
    write_fixture(ref, path)
    lines = [ln for ln in path.read_text().splitlines()
             if not ln.startswith("x ")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureFormatError, match="missing field 'x'"):
        read_fixture(path)


def test_non_numeric_entry_rejected(tmp_path, ref):
    path = tmp_path / "nan.fx"
    write_fixture(ref, path)
    path.write_text(path.read_text().replace("rowptr 33 0", "rowptr 33 q"))
    with pytest.raises(FixtureFormatError, match="rowptr"):
        read_fixture(path)


def test_invalid_csr_rejected(tmp_path, ref):
    path = tmp_path / "badcsr.fx"
    write_fixture(ref, path)
    # make the first pointer nonzero; lengths still agree
    path.write_text(path.read_text().replace("rowptr 33 0 1 1 2",
                                             "rowptr 33 1 1 1 2"))
    with pytest.raises(FixtureValidationError, match="invalid CSR"):
        read_fixture(path)


def test_duplicate_cell_rejected(tmp_path, ref):
    # the second entry of row 3 repeats the first one's column
    ref.col_idx[3] = ref.col_idx[2]
    path = tmp_path / "dup.fx"
    write_fixture(ref, path)
    for check in (True, False):
        with pytest.raises(FixtureValidationError,
                           match=r"duplicate cell \(3, 1\)"):
            read_fixture(path, check_ground_truth=check)


@pytest.mark.parametrize("field", ["values", "x", "z"])
@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_rejected(tmp_path, ref, field, bad):
    getattr(ref, field)[2] = bad
    path = tmp_path / "nonfinite.fx"
    write_fixture(ref, path)
    for check in (True, False):
        with pytest.raises(FixtureValidationError,
                           match=rf"non-finite {field}\[2\] = {bad!r}"):
            read_fixture(path, check_ground_truth=check)


def test_ground_truth_mismatch_rejected(tmp_path, ref):
    ref.z[5] += 2.0
    path = tmp_path / "wrongz.fx"
    write_fixture(ref, path)
    with pytest.raises(FixtureValidationError) as info:
        read_fixture(path)
    assert str(info.value) == ("ground truth mismatch: stored z[5] = 29.0 "
                               "but recomputed product is 27.0")
    # the challenge-file loophole: structural checks only
    loaded = read_fixture(path, check_ground_truth=False)
    assert loaded.z[5] == ref.z[5]


def test_mm_export_shape(tmp_path, ref):
    path = tmp_path / "ref.mtx"
    export_matrix_market(ref, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "%%MatrixMarket matrix coordinate real general"
    assert lines[1] == "32 36 49"
    # first stored entry: row 0, column 25, value 8, written 1-based
    assert lines[2] == "1 26 8.0"
    assert len(lines) == 2 + 49
    x_lines = companion_x_path(path).read_text().splitlines()
    assert x_lines[0] == "%%MatrixMarket matrix array real general"
    assert x_lines[1] == "36 1"
    assert x_lines[2] == "3.0"


def test_mm_entries_sorted_by_row_then_column(tmp_path):
    fx = generate(GenParams(M=9, N=9, target_nnz=30, seed=4))
    path = tmp_path / "g.mtx"
    export_matrix_market(fx, path)
    entries = [tuple(map(float, ln.split()[:2]))
               for ln in path.read_text().splitlines()[2:]]
    assert entries == sorted(entries)


def test_mm_round_trip_reference(tmp_path, ref):
    path = tmp_path / "ref.mtx"
    export_matrix_market(ref, path)
    back = import_matrix_market(path)
    assert_fixture_equal(back, ref, include_metadata=False)
    assert back.metadata["source"] == "matrix-market"
    assert back.metadata["x_source"] == "companion-file"


def test_mm_round_trip_generated(tmp_path):
    for seed in range(4):
        fx = generate(GenParams(M=7, N=12, row_fill=5, seed=seed))
        path = tmp_path / f"g{seed}.mtx"
        export_matrix_market(fx, path)
        assert_fixture_equal(import_matrix_market(path), fx,
                             include_metadata=False)


def test_large_sparse_pipeline_needs_no_dense_matrix(tmp_path):
    """generate, a checked read, verify and a Matrix Market round trip of a
    20000 x 20000 fixture with 2,000 entries, in at most 512 MB more
    address space; a dense M x N float64 copy alone would need 3.2 GB."""
    resource = pytest.importorskip("resource")
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("needs /proc/self/statm for the mapped size")
    mapped = int(statm.read_text().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**29, hard))
    try:
        fx = generate(GenParams(M=20000, N=20000, target_nnz=2000, seed=3))
        write_fixture(fx, tmp_path / "big.fx")
        back = read_fixture(tmp_path / "big.fx")
        report = verify_sequential(back)
        export_matrix_market(back, tmp_path / "big.mtx")
        mm = import_matrix_market(tmp_path / "big.mtx")
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert fx.nnz == 2000
    assert_fixture_equal(back, fx)
    assert report.overall, report.as_text()
    assert_fixture_equal(mm, fx, include_metadata=False)


def test_mm_import_without_companion_generates_x(tmp_path, ref):
    path = tmp_path / "ref.mtx"
    export_matrix_market(ref, path)
    companion_x_path(path).unlink()
    a = import_matrix_market(path, x_seed=5)
    b = import_matrix_market(path, x_seed=5)
    c = import_matrix_market(path, x_seed=6)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.x, c.x)
    assert a.metadata["x_source"] == "generated seed=5"
    # z is re-derived from the generated x, not copied from anywhere
    assert not np.array_equal(a.z, ref.z)
    assert np.array_equal(a.row_ptr, ref.row_ptr)


def test_mm_refuses_a_seed_for_an_x_read_from_a_file(tmp_path, ref):
    path = tmp_path / "ref.mtx"
    export_matrix_market(ref, path)
    with pytest.raises(ValueError) as exc:
        import_matrix_market(path, x_seed=5)
    assert str(exc.value) == (f"{companion_x_path(path)}: x is read from this "
                              "file, so x seed 5 would go unused")


def test_mm_explicit_missing_x_file_rejected(tmp_path, ref):
    path = tmp_path / "ref.mtx"
    export_matrix_market(ref, path)
    with pytest.raises(FixtureFormatError, match="no such file"):
        import_matrix_market(path, x_source=tmp_path / "nope.x.mtx")


def test_mm_rejects_symmetric(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                    "2 2 1\n1 1 1.0\n")
    with pytest.raises(FixtureFormatError, match="symmetric"):
        import_matrix_market(path)


def test_mm_rejects_complex(tmp_path):
    path = tmp_path / "cx.mtx"
    path.write_text("%%MatrixMarket matrix coordinate complex general\n"
                    "2 2 1\n1 1 1.0 0.0\n")
    with pytest.raises(FixtureFormatError, match="complex"):
        import_matrix_market(path)


def test_mm_rejects_pattern(tmp_path):
    path = tmp_path / "pat.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n"
                    "2 2 1\n1 1\n")
    with pytest.raises(FixtureFormatError, match="pattern"):
        import_matrix_market(path)


def test_mm_accepts_integer_field_and_comments(tmp_path):
    path = tmp_path / "int.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "% a comment line\n"
                    "2 3 2\n1 2 4\n2 1 7\n")
    fx = import_matrix_market(path, x_seed=1)
    assert fx.M == 2 and fx.N == 3 and fx.nnz == 2
    assert fx.values.tolist() == [4.0, 7.0]


def test_mm_rejects_duplicate_cells(tmp_path):
    path = tmp_path / "dup.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n1 1 2.0\n")
    with pytest.raises(FixtureValidationError, match="duplicate"):
        import_matrix_market(path)


def test_mm_rejects_out_of_range_indices(tmp_path):
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 1\n3 1 1.0\n")
    with pytest.raises(FixtureFormatError, match="outside"):
        import_matrix_market(path)


def test_mm_rejects_entry_count_disagreement(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "2 2 2\n1 1 1.0\n")
    with pytest.raises(FixtureFormatError, match="expected 2 entries"):
        import_matrix_market(path)


def test_mm_unsorted_input_is_normalized(tmp_path):
    path = tmp_path / "shuffled.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n"
                    "3 3 3\n3 1 5.0\n1 3 2.0\n1 1 9.0\n")
    fx = import_matrix_market(path, x_seed=0)
    assert fx.row_ptr.tolist() == [0, 2, 2, 3]
    assert fx.col_idx.tolist() == [0, 2, 0]
    assert fx.values.tolist() == [9.0, 2.0, 5.0]


def test_mm_x_length_must_match(tmp_path, ref):
    path = tmp_path / "ref.mtx"
    export_matrix_market(ref, path)
    xp = companion_x_path(path)
    lines = xp.read_text().splitlines()
    lines[1] = "35 1"
    del lines[2]
    xp.write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureValidationError, match="35"):
        import_matrix_market(path)


def test_mm_rejects_non_finite(tmp_path, ref):
    path = tmp_path / "ref.mtx"
    export_matrix_market(ref, path)
    text = path.read_text()
    path.write_text(text.replace(" 8.0\n", " nan\n", 1))
    with pytest.raises(FixtureValidationError, match=r"non-finite values\[0\]"):
        import_matrix_market(path)
    path.write_text(text)
    xp = companion_x_path(path)
    lines = xp.read_text().splitlines()
    lines[3] = "-inf"
    xp.write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureValidationError, match=r"non-finite x\[1\] = -inf"):
        import_matrix_market(path)


SHORT_ARRAYS = pytest.mark.parametrize("field, length, named", [
    ("z", 31, "z has 31 entries, expected 32"),
    ("x", 35, "x has 35 entries, expected 36"),
    ("row_ptr", 32, "row_ptr has 32 entries, expected 33"),
])


@SHORT_ARRAYS
def test_validate_fixture_checks_extents(ref, field, length, named):
    setattr(ref, field, getattr(ref, field)[:length])
    with pytest.raises(FixtureValidationError, match=named):
        validate_fixture(ref)


@SHORT_ARRAYS
def test_read_fixture_checks_extents_in_validate_fixture(tmp_path, ref, field,
                                                         length, named):
    # the file states each array's own length, so only the extents are off;
    # the reader leaves that check to validate_fixture
    setattr(ref, field, getattr(ref, field)[:length])
    path = tmp_path / "short.fx"
    write_fixture(ref, path)
    with pytest.raises(FixtureValidationError, match=named):
        read_fixture(path)


def test_validate_fixture_sorts_one_block_of_keys_at_a_time():
    # NumPy reports its buffers to tracemalloc. On the 303,617-entry matrix
    # one whole-matrix int64 array takes 2.4 MB; one block's row ids and
    # duplicate-cell keys take 2 * 256 KiB (527,179 B measured), above the
    # column-range and finiteness masks' 1 byte per entry each
    fx = generate(GenParams(M=3000, N=3000, row_fill=200, seed=1))
    validate_fixture(reference_fixture())  # lazy imports stay out
    tracemalloc.start()
    try:
        validate_fixture(fx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**19 + 2**14, peak


# -- parser fuzzing ---------------------------------------------------------

# tokens that sit on a parser's edges: signs, separators, non-ASCII digits,
# non-finite and out-of-range floats, integers beyond int64, other keywords
EDGE_TOKENS = ["0", "1", "-1", "2", "3", "36", "49", "0.5", "-0.0", "1e308",
               "1e400", "-inf", "nan", "+3", "1_0", "٣", "²", "0x1",
               str(2**59 + 1), str(2**63), str(10**30), "meta", "rows", "z",
               "%", "%%MatrixMarket", "matrix", "coordinate", "array", "real",
               "general", "symmetric", ""]
TOKENS = st.sampled_from(EDGE_TOKENS)


@st.composite
def mutated(draw, text, tokens=TOKENS):
    """A few token- and line-level edits of a valid document; most edits
    replace a token, which keeps every declared length intact."""
    lines = [ln.split(" ") for ln in text.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        edit = draw(st.sampled_from(
            ["replace"] * 4 + ["insert", "drop-token", "drop-line",
                               "copy-line"]))
        if edit == "insert" or j == len(lines[i]):
            lines[i].insert(j, draw(tokens | st.text(max_size=4)))
        elif edit == "replace":
            lines[i][j] = draw(tokens)
        elif edit == "drop-token":
            del lines[i][j]
        elif edit == "drop-line" and len(lines) > 1:
            del lines[i]
        elif edit == "copy-line":
            lines.insert(i, list(lines[i]))
    return "\n".join(" ".join(ln) for ln in lines) + "\n"


def seed_documents():
    """Valid canonical and Matrix Market texts of one small fixture."""
    fx = generate(GenParams(M=4, N=5, target_nnz=6, seed=2))
    fx.values[1] = -2.5
    fx.z = spmv_sorted_oracle(fx.matrix(), fx.x_vector()).values
    fx.metadata = {"note": "seed"}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        write_fixture(fx, tmp / "seed.fx")
        export_matrix_market(fx, tmp / "seed.mtx")
        return {name: (tmp / name).read_text()
                for name in ("seed.fx", "seed.mtx", "seed.x.mtx")}


SEEDS = seed_documents()


def test_seed_documents_pass_checked_reads(tmp_path):
    for name in SEEDS:
        (tmp_path / name).write_text(SEEDS[name])
    fixture = read_fixture(tmp_path / "seed.fx", check_ground_truth=True)
    assert fixture.values[1] == -2.5
    assert_fixture_equal(import_matrix_market(tmp_path / "seed.mtx"), fixture,
                         include_metadata=False)


def parses_or_named_error(read, *args, **kwargs):
    try:
        fixture = read(*args, **kwargs)
    except (FixtureFormatError, FixtureValidationError):
        return
    assert isinstance(fixture, Fixture)
    validate_fixture(fixture)


def edited(name, old, new):
    assert old in SEEDS[name]
    return SEEDS[name].replace(old, new, 1)


# every example writes into a new directory: rewriting one file in place
# can cost a flush per example on some file systems
FUZZ = settings(max_examples=400, deadline=None)


@FUZZ
@given(text=mutated(SEEDS["seed.fx"]) | st.text(), check=st.booleans())
# integers beyond int64 raised OverflowError from the arrays' conversion
@example(text=edited("seed.fx", "rowptr 5 0 2", "rowptr 5 0 " + str(2**63)),
         check=False)
@example(text=edited("seed.fx", "colidx 6 1", "colidx 6 -" + str(2**64)),
         check=False)
def test_read_fixture_fuzz(text, check):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.fx"
        path.write_text(text)
        parses_or_named_error(read_fixture, path, check_ground_truth=check)


@FUZZ
@given(matrix=mutated(SEEDS["seed.mtx"]) | st.text(),
       x=mutated(SEEDS["seed.x.mtx"]) | st.just(SEEDS["seed.x.mtx"]))
# extents numpy cannot allocate raised its ValueError
@example(matrix=edited("seed.mtx", "4 5 6", f"4 {10**30} 6"),
         x=SEEDS["seed.x.mtx"])
# a product overflowing to inf was returned as z
@example(matrix=edited("seed.mtx", " 9.0", " 1e308"), x=SEEDS["seed.x.mtx"])
# "²" passes str.isdigit but not int()
@example(matrix=SEEDS["seed.mtx"], x=edited("seed.x.mtx", "5 1", "² 1"))
def test_import_matrix_market_fuzz(matrix, x):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.mtx"
        path.write_text(matrix)
        companion_x_path(path).write_text(x)
        parses_or_named_error(import_matrix_market, path)


def test_non_text_file_is_a_format_error(tmp_path):
    path = tmp_path / "binary.fx"
    path.write_bytes(b"\xff\xfe\x00\x81")
    for read in (read_fixture, import_matrix_market):
        with pytest.raises(FixtureFormatError):
            read(path)


def export_by_row_sort(fixture, dest):
    """Each row's (column, value) pairs sorted in Python, one row at a
    time: the reference export_matrix_market must equal byte for byte."""
    rp, cj = fixture.row_ptr.tolist(), fixture.col_idx.tolist()
    av = fixture.values.tolist()
    lines = ["%%MatrixMarket matrix coordinate real general",
             f"{fixture.M} {fixture.N} {fixture.nnz}"]
    for i in range(fixture.M):
        row = sorted((cj[p], av[p]) for p in range(rp[i], rp[i + 1]))
        lines.extend(f"{i + 1} {j + 1} {v!r}" for j, v in row)
    Path(dest).write_text("\n".join(lines) + "\n")
    companion_x_path(dest).write_text("\n".join(
        ["%%MatrixMarket matrix array real general", f"{fixture.N} 1"]
        + [repr(v) for v in fixture.x.tolist()]) + "\n")


def import_by_triple_sort(source):
    """A valid file and its companion x file, with the (row, col, value)
    triples sorted by cell in Python: the reference import_matrix_market
    must equal array for array."""
    def body(path):
        return [ln.split() for ln in Path(path).read_text().splitlines()[1:]
                if ln.strip() and not ln.lstrip().startswith("%")]
    (M, N, _), *entries = body(source)
    M, N = int(M), int(N)
    triples = [(int(r) - 1, int(c) - 1, float(v)) for r, c, v in entries]
    triples.sort(key=lambda t: (t[0], t[1]))
    counts = np.bincount(np.array([r for r, _, _ in triples], dtype=np.int64),
                         minlength=M)
    fx = Fixture(M=M, N=N, row_ptr=np.concatenate([[0], np.cumsum(counts)]),
                 col_idx=[c for _, c, _ in triples],
                 values=[v for _, _, v in triples],
                 x=[float(v) for (v,) in body(companion_x_path(source))[1:]],
                 z=np.zeros(M), metadata={"source": "matrix-market",
                                          "x_source": "companion-file"})
    fx.z = spmv_sorted_oracle(fx.matrix(), fx.x_vector()).values
    return fx


@st.composite
def valid_fixtures(draw):
    """Valid fixtures with canonical rows, empty rows and non-integer
    values and x."""
    mat = draw(csr_matrices(canonical=True).filter(lambda m: m.m >= 1))
    x = draw(st.lists(NON_INTEGER, min_size=mat.N, max_size=mat.N))
    fx = Fixture(M=mat.M, N=mat.N, row_ptr=mat.row_ptr, col_idx=mat.col_idx,
                 values=mat.values, x=x, z=np.zeros(mat.M))
    fx.z = spmv_sorted_oracle(fx.matrix(), fx.x_vector()).values
    return fx


@settings(max_examples=200, deadline=None)
@given(fx=valid_fixtures(), data=st.data())
def test_mm_io_equals_sort_references(fx, data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        export_matrix_market(fx, tmp / "new.mtx")
        export_by_row_sort(fx, tmp / "ref.mtx")
        for name in ("ref.mtx", "ref.x.mtx"):
            assert ((tmp / name.replace("ref", "new")).read_bytes()
                    == (tmp / name).read_bytes())
        # entry lines in any order, with comment lines among them
        head, *entries = (tmp / "ref.mtx").read_text().splitlines()
        size, *entries = entries
        lines = data.draw(st.permutations(entries))
        for k in data.draw(st.lists(st.integers(0, len(lines)), max_size=3)):
            lines.insert(k, "% comment")
        (tmp / "ref.mtx").write_text("\n".join([head, size, *lines]) + "\n")
        back = import_matrix_market(tmp / "ref.mtx")
        assert_fixture_equal(back, import_by_triple_sort(tmp / "ref.mtx"))


# -- bulk parsing against per-token references ------------------------------

def parse_array_by_token(text, lineno, name, dtype):
    """One array line's text after its key split and converted a token at a
    time into a list: the reference _parse_array must match."""
    caster = fixture_io._int64 if dtype is np.int64 else float
    tokens = text.split()
    if not tokens:
        raise FixtureFormatError(f"{name}: missing length", lineno)
    try:
        declared = int(tokens[0])
    except ValueError:
        raise FixtureFormatError(
            f"{name}: length {tokens[0]!r} is not an integer", lineno) from None
    body = tokens[1:]
    if len(body) != declared:
        raise FixtureFormatError(
            f"{name}: expected {declared} values, got {len(body)}", lineno)
    try:
        return [caster(t) for t in body]
    except ValueError as exc:
        raise FixtureFormatError(f"{name}: {exc}", lineno) from None


def mm_body_two_lists(source):
    """The kept lines and their line numbers built side by side, and the
    lines after the first kept one joined again: the reference _mm_body
    must match."""
    lines = fixture_io._read_text(source).splitlines()
    if not lines:
        raise FixtureFormatError(f"{source}: empty file", line=1)
    header = lines[0]
    body = []
    numbers = []
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        body.append(stripped)
        numbers.append(lineno)
    if not body:
        raise FixtureFormatError(f"{source}: missing size line")
    return header, body[0], numbers[0], "\n".join(lines[numbers[0]:])


def kept_lines(text, lineno):
    """Each line of text that is not blank or a % comment, stripped, with
    its line number, counting text's first line as line lineno."""
    return [(stripped, number)
            for number, raw in enumerate(text.splitlines(), start=lineno)
            if (stripped := raw.strip()) and not stripped.startswith("%")]


def mm_entries_by_line(source, text, lineno, M, N, nnz):
    """Each entry line split, converted and range-checked on its own: the
    reference _mm_entries must match."""
    entries = kept_lines(text, lineno + 1)
    if len(entries) != nnz:
        raise FixtureFormatError(
            f"{source}: expected {nnz} entries, got {len(entries)}")
    rows, cols, vals = [], [], []
    for stripped, number in entries:
        tokens = stripped.split()
        if len(tokens) != 3:
            raise FixtureFormatError(
                f"{source}: entry must be 'row col value', got {stripped!r}",
                number)
        try:
            r, c = int(tokens[0]), int(tokens[1])
            v = float(tokens[2])
        except ValueError as exc:
            raise FixtureFormatError(f"{source}: {exc}", number) from None
        if not (1 <= r <= M and 1 <= c <= N):
            raise FixtureFormatError(
                f"{source}: entry ({r}, {c}) outside 1..{M} x 1..{N}",
                number)
        rows.append(r - 1)
        cols.append(c - 1)
        vals.append(v)
    rows, cols = np.array([rows, cols], dtype=np.int64)
    return rows, cols, np.array(vals, dtype=np.float64)


def read_mm_x_by_token(source, expected_n):
    """The x array file converted a line at a time: the reference
    _read_mm_x must match."""
    header, size, lineno, text = fixture_io._mm_body(source)
    fixture_io._mm_header(header, source, "array")
    dims = size.split()
    if len(dims) != 2 or dims[1] != "1" or not dims[0].isdecimal():
        raise FixtureFormatError(
            f"{source}: expected an N x 1 array size line, got {size!r}",
            lineno)
    n = int(dims[0])
    if n != expected_n:
        raise FixtureValidationError(
            f"{source}: x has {n} entries but the matrix has {expected_n} "
            f"columns")
    body = kept_lines(text, lineno + 1)
    if len(body) != n:
        raise FixtureFormatError(
            f"{source}: expected {n} vector entries, got {len(body)}")
    values = []
    for stripped, number in body:
        try:
            values.append(float(stripped))
        except ValueError as exc:
            raise FixtureFormatError(f"{source}: {exc}", number) from None
    return np.array(values, dtype=np.float64)


REFERENCES = {"_parse_array": parse_array_by_token,
              "_mm_body": mm_body_two_lists,
              "_mm_entries": mm_entries_by_line,
              "_read_mm_x": read_mm_x_by_token}

# integers at and just beyond int64's ends besides EDGE_TOKENS' own, one
# past the seed matrix's 4 rows and 5 columns, and ";", which no reader
# takes
DIFF_TOKENS = st.sampled_from(EDGE_TOKENS + [
    str(2**63 - 1), str(-2**63), str(-2**63 - 1), str(-2**64), "inf",
    "5", "6", ";"])


@st.composite
def edge_documents(draw, name):
    """A seed document, as is or mutated, with blank, whitespace and %
    lines inserted and some lines ended by CRLF."""
    text = draw(st.just(SEEDS[name]) | mutated(SEEDS[name], DIFF_TOKENS))
    lines = text.split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "%", "% note", " \t "])))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                         min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the class must match too, whatever it is
        return type(exc), str(exc)


def assert_same_outcome(read, path, slice_chars=fixture_io._SLICE):
    """read(path) with the module's parsers, in codec slices of slice_chars
    characters, gives what it gives with the per-token references: the same
    arrays and metadata bit for bit, or the same exception class and
    message."""
    with mock.patch.object(fixture_io, "_SLICE", slice_chars):
        fast = outcome(read, path)
    with mock.patch.multiple(fixture_io, **REFERENCES):
        slow = outcome(read, path)
    if isinstance(slow, tuple) or isinstance(fast, tuple):
        assert fast == slow
        return
    assert (fast.M, fast.N, fast.metadata) == (slow.M, slow.N, slow.metadata)
    for name in ("row_ptr", "col_idx", "values", "x", "z"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


DIFFERENTIAL = settings(max_examples=300, deadline=None)
# small codec slices put tokens and lines on slice edges
SLICE_CHARS = st.sampled_from([1, 2, 5, 16, fixture_io._SLICE])


@DIFFERENTIAL
@given(text=edge_documents("seed.fx"), check=st.booleans(),
       slice_chars=SLICE_CHARS)
def test_read_fixture_equals_token_references(text, check, slice_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.fx"
        path.write_bytes(text.encode())
        assert_same_outcome(
            lambda p: read_fixture(p, check_ground_truth=check), path,
            slice_chars=slice_chars)


@DIFFERENTIAL
@given(matrix=edge_documents("seed.mtx"), x=edge_documents("seed.x.mtx"),
       slice_chars=SLICE_CHARS)
def test_import_matrix_market_equals_line_references(matrix, x, slice_chars):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.mtx"
        path.write_bytes(matrix.encode())
        companion_x_path(path).write_bytes(x.encode())
        assert_same_outcome(import_matrix_market, path, slice_chars)


def mm_text(entries, *, comment_every=0):
    """A 100 x 100 coordinate file of the given entry lines, with a
    comment and a blank line before the size line and a comment before
    every comment_every-th entry; returns the text and the physical line
    number of each entry."""
    lines = ["%%MatrixMarket matrix coordinate real general", "% made here",
             "", f"100 100 {len(entries)}"]
    numbers = []
    for k, entry in enumerate(entries):
        if comment_every and k % comment_every == 0:
            lines.append(f"% entry {k}")
        lines.append(entry)
        numbers.append(len(lines))
    return "\n".join(lines) + "\n", numbers


BAD_ENTRIES = [("7 8", r"entry must be 'row col value', got '7 8'"),
               ("7 8 1.0 9", r"entry must be 'row col value', got '7 8 1.0 9'"),
               ("7 8 x", r"could not convert string to float: 'x'"),
               # of two bad tokens in one line, the first is named
               ("7 y x", r"invalid literal for int\(\) with base 10: 'y'"),
               *((f"{r} {c} 1.0", rf"entry \({r}, {c}\) outside 1\.\.100 x 1\.\.100")
                 for r, c in ((0, 7), (7, 0), (101, 7), (7, 101)))]


@pytest.mark.parametrize("bad,message", BAD_ENTRIES)
def test_mm_entry_error_names_physical_line(tmp_path, bad, message):
    text, numbers = mm_text(["1 1 1.0", "2 2 2.0", bad], comment_every=2)
    path = tmp_path / "bad.mtx"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FixtureFormatError, match=message) as exc:
        import_matrix_market(path)
    assert exc.value.line == numbers[2] == 9
    assert str(exc.value).startswith(f"line 9: {path}: ")


@pytest.mark.parametrize("bad,message", BAD_ENTRIES)
def test_mm_entry_error_in_later_block_names_physical_line(tmp_path, bad,
                                                           message):
    n = 4596
    entries = [f"{k // 100 + 1} {k % 100 + 1} {k}.5" for k in range(n)]
    text, numbers = mm_text(entries, comment_every=97)
    path = tmp_path / "good.mtx"
    path.write_text(text, encoding="utf-8")
    assert import_matrix_market(path).nnz == n
    bad_at = 4219
    entries[bad_at] = bad
    text, numbers = mm_text(entries, comment_every=97)
    path = tmp_path / "bad.mtx"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FixtureFormatError, match=message) as exc:
        import_matrix_market(path)
    assert exc.value.line == numbers[bad_at]


@pytest.mark.parametrize("end", ["\r\n", "\r", "\x0b", "\u2028"])
def test_mm_error_names_physical_line_across_line_ends(tmp_path, end):
    # every line break str.splitlines knows ends a line; reading the file
    # as text turns CRLF and CR into one line feed each
    text, numbers = mm_text(["1 1 1.0", "2 2 2.0", "7 8 x"], comment_every=2)
    path = tmp_path / "ends.mtx"
    path.write_bytes(text.replace("\n", end).encode())
    with pytest.raises(FixtureFormatError,
                       match="could not convert string to float") as exc:
        import_matrix_market(path)
    assert exc.value.line == numbers[2] == 9


def test_mm_x_value_error_names_physical_line(tmp_path, ref):
    export_matrix_market(ref, tmp_path / "ref.mtx")
    x_path = companion_x_path(tmp_path / "ref.mtx")
    lines = x_path.read_text().splitlines()
    lines[2:2] = ["% first entry next", ""]
    lines[7] = "x"
    x_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FixtureFormatError) as exc:
        import_matrix_market(tmp_path / "ref.mtx")
    assert str(exc.value) == (f"line 8: {x_path}: could not convert string "
                              f"to float: 'x'")


def test_declined_text_at_scale_reads_as_the_exporters(tmp_path):
    # values written %.16e and a % line every 1,000 entries are outside the
    # codec's grammar, so more than 2**15 entries and every x entry go
    # through the line-by-line fallback
    fx = generate(GenParams(M=2000, N=1500, row_fill=64, seed=3))
    assert fx.nnz > 2**15
    export_matrix_market(fx, tmp_path / "ref.mtx")
    for name in ("ref.mtx", "ref.x.mtx"):
        head, size, *body = (tmp_path / name).read_text().splitlines()
        lines = [head, size]
        for k, line in enumerate(body):
            if k % 1000 == 500:
                lines.append(f"% entry {k}")
            *index, value = line.split()
            lines.append(" ".join(index + [f"{float(value):.16e}"]))
        (tmp_path / name.replace("ref", "e")).write_text("\n".join(lines) + "\n")
    with mock.patch.object(fixture_io, "_kept_lines",
                           wraps=fixture_io._kept_lines) as spy:
        want = import_matrix_market(tmp_path / "ref.mtx")
        assert spy.call_count == 0
        got = import_matrix_market(tmp_path / "e.mtx")
        # one walk for the entries and one for x
        assert spy.call_count == 2
    assert (got.M, got.N, got.metadata) == (want.M, want.N, want.metadata)
    for name in ("row_ptr", "col_idx", "values", "x", "z"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes()), name


def test_integral_matrix_market_text_takes_the_codec(tmp_path):
    # an integer file, and a real one spelling its values 4 and 4.0, are
    # read without the line-by-line fallback; one 0.5 sends a file to it
    files = {"int.mtx": ("integer", "4", "-7", "12", "4"),
             "real.mtx": ("real", "4", "-7.0", "12", "4.0"),
             "half.mtx": ("real", "4", "-7.0", "0.5", "4.0")}
    for name, (field, *v) in files.items():
        (tmp_path / name).write_text(
            f"%%MatrixMarket matrix coordinate {field} general\n3 3 4\n"
            f"1 1 {v[0]}\n2 3 {v[1]}\n3 1 {v[2]}\n3 3 {v[3]}\n")
        companion_x_path(tmp_path / name).write_text(
            "%%MatrixMarket matrix array real general\n3 1\n1\n-2.0\n3\n")
    with mock.patch.object(fixture_io, "_kept_lines",
                           wraps=fixture_io._kept_lines) as spy:
        whole = import_matrix_market(tmp_path / "int.mtx")
        real = import_matrix_market(tmp_path / "real.mtx")
        assert spy.call_count == 0
        half = import_matrix_market(tmp_path / "half.mtx")
        assert spy.call_count == 1
    assert_fixture_equal(real, whole)
    assert whole.values.tolist() == [4.0, -7.0, 12.0, 4.0]
    assert whole.x.tolist() == [1.0, -2.0, 3.0]
    assert half.values.tolist() == [4.0, -7.0, 0.5, 4.0]
    for name in files:
        assert_same_outcome(import_matrix_market, tmp_path / name)


def test_a_declared_length_past_the_text_is_a_format_error(tmp_path, ref):
    # the codec must not allocate what a length it has not checked claims
    write_fixture(ref, tmp_path / "ref.fx")
    path = tmp_path / "long.fx"
    path.write_text((tmp_path / "ref.fx").read_text().replace(
        "colidx 49 ", f"colidx {2**59} "))
    with pytest.raises(FixtureFormatError,
                       match=f"colidx: expected {2**59} values, got 49"):
        read_fixture(path)
    export_matrix_market(ref, tmp_path / "ref.mtx")
    (tmp_path / "long.mtx").write_text((tmp_path / "ref.mtx").read_text()
                                       .replace("32 36 49", "32 36 10000000000"))
    companion_x_path(tmp_path / "ref.mtx").rename(
        companion_x_path(tmp_path / "long.mtx"))
    with pytest.raises(FixtureFormatError,
                       match="expected 10000000000 entries, got 49"):
        import_matrix_market(tmp_path / "long.mtx")


def test_index_beyond_int64_names_its_line(tmp_path, ref):
    ref.metadata = {"note": "two lines of metadata", "more": "here"}
    path = tmp_path / "wide.fx"
    write_fixture(ref, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lineno = next(k for k, line in enumerate(lines, start=1)
                  if line.startswith("colidx "))
    tokens = lines[lineno - 1].split(" ")
    tokens[5] = str(2**63)
    lines[lineno - 1] = " ".join(tokens)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(FixtureFormatError) as exc:
        read_fixture(path)
    assert str(exc.value) == (f"line {lineno}: colidx: '{2**63}' does not "
                              f"fit in int64")


# -- the number codec against repr, int() and float() -----------------------

INT64_ENDS = [0, 1, -1, 2**53, -2**53, 10**15, 10**18 - 1, -(10**18 - 1),
              10**18, 2**63 - 1, -2**63, -2**63 + 1]
INT64S = st.integers(-2**63, 2**63 - 1) | st.sampled_from(INT64_ENDS)
# integral floats the formatter spells itself, and floats it leaves to repr:
# non-integers, 2**53 and beyond, 1e16 (which repr writes as 1e+16), tiny
# and non-finite ones
FLOAT_EDGES = [0.0, -0.0, 1.0, -1.0, 2.0**53 - 1, -(2.0**53 - 1), 2.0**53,
               -2.0**53, 2.0**53 + 2, -(2.0**53 + 2), 1e15, -1e15, 1e16,
               -1e16, 0.1, -2.5, 1e-300, 5e-324, float("nan"), float("inf"),
               float("-inf")]
FLOATS = (st.integers(-1000, 1000).map(float)
          | st.integers(-2**53 + 1, 2**53 - 1).map(float)
          | st.sampled_from(FLOAT_EDGES) | NON_INTEGER | st.floats())


@settings(max_examples=200, deadline=None)
@given(ints=st.lists(INT64S, max_size=30), floats=st.data(),
       slice_entries=st.sampled_from([1, 2, 7, fixture_io._SLICE]))
def test_format_equals_repr(ints, floats, slice_entries):
    floats = floats.draw(st.lists(FLOATS, min_size=len(ints),
                                  max_size=len(ints)))
    i64, f64 = np.array(ints, dtype=np.int64), np.array(floats)
    with mock.patch.object(fixture_io, "_SLICE", slice_entries):
        for arr in (i64, f64):
            assert fixture_io._format([arr], " ") == "".join(
                repr(v) + " " for v in arr.tolist())
            assert (fixture_io._format([arr], " ").rstrip(" ")
                    == " ".join(map(repr, arr.tolist())))
        assert fixture_io._format([i64, i64, f64], "\n") == "".join(
            f"{r} {c} {v!r}\n" for r, c, v in zip(ints, ints, floats))


@settings(max_examples=200, deadline=None)
@given(ints=st.lists(st.integers(-10**18 + 1, 10**18 - 1)
                     | st.sampled_from([0, 10**18 - 1, -(10**18 - 1)]),
                     max_size=30),
       floats=st.data(),
       slice_entries=st.sampled_from([1, 2, 7, fixture_io._SLICE]))
def test_parse_reads_back_what_format_writes(ints, floats, slice_entries):
    """Every int64 of up to 18 digits, and every integral float64 below
    2**53, is written in the codec's grammar and read back bit for bit."""
    floats = np.array(floats.draw(st.lists(
        st.integers(-2**53 + 1, 2**53 - 1).map(float)
        | st.integers(10**15, 2**53 - 1).map(float)  # 16 digits
        | st.sampled_from([0.0, -0.0, 2.0**53 - 1, -(2.0**53 - 1)]),
        min_size=len(ints), max_size=len(ints))))
    ints = np.array(ints, dtype=np.int64)
    with mock.patch.object(fixture_io, "_SLICE", slice_entries):
        for columns, end in (([ints], " "), ([floats], " "), ([ints], "\n"),
                             ([floats], "\n"), ([ints, ints, floats], "\n")):
            got = fixture_io._parse(fixture_io._format(columns, end),
                                    len(ints), tuple(c.dtype for c in columns),
                                    end)
            assert got is not None
            for a, b in zip(got, columns):
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


def spelled(whole, frac):
    """Tokens of an optional "-", 1..whole digits and, if frac, an optional
    point and 1..frac digits."""
    digits = partial(st.text, "0123456789", min_size=1)
    point = st.just("")
    if frac:
        point |= digits(max_size=frac).map(lambda f: "." + f)
    return st.builds(lambda *parts: "".join(parts), st.sampled_from(["", "-"]),
                     digits(max_size=whole), point)


# tokens inside the codec's grammar for each dtype, and on its edges: points
# at either end, decimals, 15 and 16 significant digits, 2**53 - 1 and
# 2**53, 18 and 19 integer digits, int64's ends, ".0" where it is not the
# end of an integer, other spellings int() or float() accept, non-ASCII
# digits
SPELLINGS = {np.int64: spelled(18, 0),
             np.float64: st.builds(str.__add__, spelled(16, 0),
                                   st.sampled_from(["", ".0"]))}
EDGE_NUMBERS = [".5", "5.", "-.5", "+3", "1_0", "٣", "²", "1e5", "1E5", "-",
                "--1", "1.2.3", "0x1", "nan", "inf", "-inf", "-0", "-0.0",
                "007", "1" * 15, "1" * 16, "9" * 18, "9" * 19, "0." + "0" * 14,
                "1." + "2" * 14, "1." + "2" * 15, str(2**63 - 1), str(-2**63),
                str(2**63), "9007199254740993", "0.1", "1e-300", "1e+16",
                "9007199254740991.0", "9007199254740992.0", "1.00", ".0",
                "-.0", "1.0.0"]
NUMBER_TOKENS = (spelled(19, 16) | st.sampled_from(EDGE_NUMBERS)
                 | FLOATS.map(repr) | INT64S.map(str))


def token_lists(dtype):
    """Tokens inside the grammar for dtype, the same with one token from
    anywhere among them, and tokens from anywhere."""
    inside = st.lists(SPELLINGS[dtype], max_size=12)
    return (inside
            | st.builds(lambda ts, k, t: ts[:k] + [t] + ts[k:], inside,
                        st.integers(0, 12), NUMBER_TOKENS)
            | st.lists(NUMBER_TOKENS, max_size=12))


def in_grammar(token, dtype):
    if dtype is np.int64:
        return re.fullmatch(r"-?[0-9]{1,18}", token) is not None
    return (re.fullmatch(r"-?[0-9]{1,18}(\.0)?", token) is not None
            and abs(int(token.removesuffix(".0"))) < 2**53)


def converted(tokens, dtype):
    """Each token through int() or float(), or None if one fails."""
    try:
        return np.array([(int if dtype is np.int64 else float)(t)
                         for t in tokens], dtype)
    except (ValueError, OverflowError):
        return None


@settings(max_examples=300, deadline=None)
@given(dtype=st.sampled_from([np.int64, np.float64]), data=st.data(),
       slice_chars=st.sampled_from([1, 2, 5, 16, fixture_io._SLICE]))
def test_parse_equals_int_and_float(dtype, data, slice_chars):
    """The codec reads exactly the tokens in its grammar, to int()'s or
    float()'s value bit for bit, as an array line or as one-entry lines."""
    tokens = data.draw(token_lists(dtype))
    want = converted(tokens, dtype)
    accepted = all(in_grammar(t, dtype) for t in tokens)
    with mock.patch.object(fixture_io, "_SLICE", slice_chars):
        for text, sep in ((" ".join(tokens), " "),
                          ("".join(t + "\n" for t in tokens), "\n")):
            got = fixture_io._parse(text, len(tokens), (dtype,), sep)
            assert (got is not None) == accepted, (text, got)
            if got is not None:
                assert got[0].tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.tuples(*[SPELLINGS[np.int64]] * 2,
                                SPELLINGS[np.float64]), max_size=8)
       | st.lists(st.tuples(*[SPELLINGS[np.int64] | INT64S.map(str)] * 2,
                            SPELLINGS[np.float64] | NUMBER_TOKENS),
                  max_size=8),
       slice_chars=st.sampled_from([1, 3, 8, fixture_io._SLICE]))
def test_parse_reads_matrix_market_lines(lines, slice_chars):
    text = "".join(f"{r} {c} {v}\n" for r, c, v in lines)
    rows, cols, vals = zip(*lines) if lines else ((), (), ())
    # the same tokens as lines of one and five tokens
    moved = text.replace("\n", " ", 1).replace(" ", "\n", 1)
    with mock.patch.object(fixture_io, "_SLICE", slice_chars):
        got = fixture_io._parse(text, len(lines),
                                (np.int64, np.int64, np.float64), "\n")
        assert len(lines) < 2 or fixture_io._parse(
            moved, len(lines), (np.int64, np.int64, np.float64),
            "\n") is None
    accepted = (all(in_grammar(t, np.int64) for t in rows + cols)
                and all(in_grammar(t, np.float64) for t in vals))
    assert (got is not None) == accepted
    if got is not None:
        for arr, tokens, dtype in zip(got, (rows, cols, vals),
                                      (np.int64, np.int64, np.float64)):
            assert arr.tobytes() == converted(tokens, dtype).tobytes()


@pytest.fixture(scope="module")
def large_files(tmp_path_factory):
    """The 303,617-entry multiply-large fixture as a canonical file and as
    Matrix Market files."""
    tmp = tmp_path_factory.mktemp("large")
    fx = generate(GenParams(M=3000, N=3000, row_fill=200, seed=1))
    write_fixture(fx, tmp / "large.fx")
    export_matrix_market(fx, tmp / "large.mtx")
    return fx, tmp


@pytest.mark.parametrize("read, name, bound", [
    # 42.2 and 39.6 MB while every token was a string of its own
    (read_fixture, "large.fx", 21 * 10**6),
    (import_matrix_market, "large.mtx", 24 * 10**6),
])
def test_large_read_parses_in_slices(large_files, read, name, bound):
    # the fixture's arrays take 4.9 MB and its files 2.7 and 4.1 MB
    fx, tmp = large_files
    read(tmp / name)  # lazy imports stay out
    tracemalloc.start()
    try:
        back = read(tmp / name)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_fixture_equal(back, fx, include_metadata=False)
    assert peak <= bound, peak


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_parse_takes_edge_tokens_only_inside_the_grammar(dtype):
    # each alone, and among tokens the codec takes, on and off slice edges
    for token in EDGE_NUMBERS:
        for tokens in ([token], ["1", token, "22"]):
            want = converted(tokens, dtype)
            for slice_chars in (1, 2, fixture_io._SLICE):
                with mock.patch.object(fixture_io, "_SLICE", slice_chars):
                    got = fixture_io._parse(" ".join(tokens), len(tokens),
                                            (dtype,), " ")
                assert (got is not None) == in_grammar(token, dtype), token
                if got is not None:
                    assert got[0].tobytes() == want.tobytes(), token
