"""Fixture generation and the bundled reference instance."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import assert_fixture_equal
from spmvsim import (
    Fixture,
    GenParams,
    InvalidGenParams,
    RNG_NAME,
    generate,
    reference_fixture,
    validate_csr,
)


def dense_of(fx):
    dense = np.zeros((fx.M, fx.N))
    for i in range(fx.M):
        for p in range(fx.row_ptr[i], fx.row_ptr[i + 1]):
            dense[i, fx.col_idx[p]] = fx.values[p]
    return dense


def test_same_seed_is_bit_identical():
    a = generate(GenParams(M=12, N=17, target_nnz=40, seed=3))
    b = generate(GenParams(M=12, N=17, target_nnz=40, seed=3))
    for name in ("row_ptr", "col_idx", "values", "x", "z"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.metadata == b.metadata


# sha256 prefixes of the row_ptr, col_idx, values, x and z bytes, from the
# generator that built each row from its own array and concatenated them
PINNED_FIXTURES = [
    # the benchmark's multiply-large fixture
    (dict(M=3000, N=3000, row_fill=200, seed=1),
     ("0b18bd9e61483565", "659a3bda84c5287b", "58f9ca98f943e0a4",
      "ae5d8a94c1dd04a0", "16771663b9bfd999")),
    # the benchmark's first fixture-pipeline fixture
    (dict(M=700, N=700, target_nnz=4900, seed=100001),
     ("8f8a945360e040e5", "99eacb2b8ae49196", "e370e6e30865186b",
      "1fc70b219c619e1f", "87543410aa7994bb")),
    (dict(M=40, N=30, row_fill=0, seed=5),
     ("7b4499c3cc6e82a9", "e3b0c44298fc1c14", "e3b0c44298fc1c14",
      "a11b5121f470a2cf", "7b6436b0c98f6238")),
    # row_fill above N: rows of all N columns are possible
    (dict(M=25, N=30, row_fill=45, seed=6),
     ("3af5ef9b353af10e", "0f9e84dc40fa39c0", "255afbc495e35d0c",
      "31217283211c5bca", "6157ba5dc71d2d22")),
    (dict(M=1, N=1, target_nnz=1, seed=7),
     ("9d34149fbd1fe777", "af5570f5a1810b7a", "9ee2b49423e1506e",
      "3e6357a56fbae744", "829f14aeeba2d084")),
]


@pytest.mark.parametrize("kwargs, digests", PINNED_FIXTURES)
def test_generated_bits_are_pinned(kwargs, digests):
    fx = generate(GenParams(**kwargs))
    got = tuple(hashlib.sha256(getattr(fx, name).tobytes()).hexdigest()[:16]
                for name in ("row_ptr", "col_idx", "values", "x", "z"))
    assert got == digests


def test_generate_peak_memory_is_near_the_fixture_size():
    # NumPy reports its buffers to tracemalloc, so the peak is exact: the
    # fixture's own arrays plus the oracle's one row block, about 1.2 times
    # the fixture. One more nnz-sized array would make it 1.7 times.
    params = GenParams(M=3000, N=3000, row_fill=200, seed=1)
    generate(GenParams(M=2, N=2, row_fill=2))  # lazy imports stay out
    tracemalloc.start()
    try:
        fx = generate(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(getattr(fx, name).nbytes
               for name in ("row_ptr", "col_idx", "values", "x", "z"))
    assert peak <= 1.4 * size, (peak, size)


def test_different_seeds_differ():
    # not guaranteed in principle, but a collision over a 32x36 grid with
    # 50 cells is astronomically unlikely
    a = generate(GenParams(M=32, N=36, target_nnz=50, seed=0))
    b = generate(GenParams(M=32, N=36, target_nnz=50, seed=1))
    assert not (np.array_equal(a.col_idx, b.col_idx)
                and np.array_equal(a.row_ptr, b.row_ptr))


def test_target_nnz_is_exact():
    fx = generate(GenParams(M=32, N=36, target_nnz=50, seed=7))
    assert fx.nnz == 50
    assert validate_csr(fx.matrix()) is None


def test_generated_z_matches_independent_product():
    # cross-check with numpy's own matmul, a code path the package never
    # uses; integer-valued data keeps it exact
    fx = generate(GenParams(M=9, N=14, target_nnz=30, seed=21))
    assert np.array_equal(dense_of(fx) @ fx.x, fx.z)


def test_columns_strictly_increasing_within_rows():
    for seed in range(6):
        for params in (GenParams(M=10, N=10, target_nnz=35, seed=seed),
                       GenParams(M=10, N=10, row_fill=4, seed=seed)):
            fx = generate(params)
            for i in range(fx.M):
                row = fx.col_idx[fx.row_ptr[i]:fx.row_ptr[i + 1]]
                assert np.all(np.diff(row) > 0), (params, i)


def test_row_fill_zero_gives_zero_matrix():
    fx = generate(GenParams(M=4, N=4, row_fill=0, seed=123))
    assert fx.nnz == 0
    assert np.array_equal(fx.z, np.zeros(4))
    assert validate_csr(fx.matrix()) is None


def test_row_fill_caps_row_lengths():
    fx = generate(GenParams(M=20, N=9, row_fill=3, seed=5))
    lengths = np.diff(fx.row_ptr)
    assert lengths.max() <= 3
    assert lengths.min() >= 0


def test_one_by_one_forced_full():
    # a single forced cell with pinned value and x ranges: z must be 7 * 3
    # regardless of seed
    for seed in (0, 17, 994):
        fx = generate(GenParams(M=1, N=1, target_nnz=1, value_range=(7, 7),
                                x_range=(3, 3), seed=seed))
        assert fx.z.tolist() == [21.0]


def test_values_respect_ranges():
    fx = generate(GenParams(M=16, N=16, target_nnz=80, value_range=(2, 5),
                            x_range=(4, 6), seed=9))
    assert fx.values.min() >= 2 and fx.values.max() <= 5
    assert fx.x.min() >= 4 and fx.x.max() <= 6
    assert np.array_equal(fx.values, np.round(fx.values))


def test_nnz_exceeding_capacity_rejected():
    with pytest.raises(InvalidGenParams, match="exceeds capacity"):
        generate(GenParams(M=2, N=2, target_nnz=9))


def test_exactly_one_density_control_required():
    with pytest.raises(InvalidGenParams):
        generate(GenParams(M=2, N=2))
    with pytest.raises(InvalidGenParams):
        generate(GenParams(M=2, N=2, target_nnz=1, row_fill=1))


def test_bad_ranges_rejected():
    with pytest.raises(InvalidGenParams):
        generate(GenParams(M=2, N=2, target_nnz=1, value_range=(0, 3)))
    with pytest.raises(InvalidGenParams):
        generate(GenParams(M=2, N=2, target_nnz=1, x_range=(5, 2)))


@pytest.mark.parametrize("density, message", [
    (dict(target_nnz=-1), "target_nnz must be >= 0, got -1"),
    (dict(row_fill=-1), "row_fill must be >= 0, got -1"),
])
def test_negative_density_rejected(density, message):
    with pytest.raises(InvalidGenParams, match=message):
        generate(GenParams(M=2, N=2, **density))


def test_bad_extents_rejected():
    with pytest.raises(InvalidGenParams):
        generate(GenParams(M=0, N=4, target_nnz=0))


@pytest.mark.parametrize("kwargs, message", [
    (dict(M=3.5), "M must be an integer, got 3.5"),
    (dict(N="4"), "N must be an integer, got '4'"),
    (dict(target_nnz=2.5, row_fill=None), "target_nnz must be an integer, "
                                          "got 2.5"),
    (dict(row_fill=2.5), "row_fill must be an integer, got 2.5"),
    (dict(seed=1.5), "seed must be an integer, got 1.5"),
    (dict(seed=None), "seed must be an integer, got None"),
    (dict(seed=-1), "seed must be >= 0, got -1"),
    (dict(value_range=(1.5, 3)), "value_range bound must be an integer, "
                                 "got 1.5"),
    (dict(x_range=(1, 9.0)), "x_range bound must be an integer, got 9.0"),
    (dict(value_range=(1, 2**63)), "value_range must satisfy hi <= 2**63 - 1, "
                                   "got (1, 9223372036854775808)"),
    (dict(x_range=(1, 10**20)), "x_range must satisfy hi <= 2**63 - 1, "
                                "got (1, 100000000000000000000)"),
], ids=["M", "N", "target_nnz", "row_fill", "seed-float", "seed-none",
        "seed-negative", "value_range-float", "x_range-float",
        "value_range-2**63", "x_range-10**20"])
def test_bad_generation_inputs_name_their_field(kwargs, message):
    # each would otherwise be recorded as given, or fail inside NumPy with
    # a message that names no field
    params = GenParams(**{"M": 3, "N": 4, "row_fill": 2, **kwargs})
    with pytest.raises(InvalidGenParams) as exc:
        generate(params)
    assert str(exc.value) == message


def test_range_bounds_reach_int64_max():
    top = 2**63 - 1
    fx = generate(GenParams(M=2, N=2, row_fill=2, value_range=(top, top),
                            x_range=(top, top)))
    assert fx.metadata["value_range"] == f"{top}..{top}"
    assert fx.metadata["x_range"] == f"{top}..{top}"


def test_metadata_records_generation_inputs():
    fx = generate(GenParams(M=6, N=8, row_fill=2, seed=42))
    assert fx.metadata["rng"] == RNG_NAME
    assert fx.metadata["seed"] == "42"
    assert fx.metadata["row_fill"] == "2"
    assert "target_nnz" not in fx.metadata


def test_reference_fixture_shape_and_count():
    fx = reference_fixture()
    assert fx.M == 32
    assert fx.N == 36
    # the trailing declared-but-never-addressed slot of the original data
    # is not stored; the row pointer is authoritative
    assert fx.nnz == 49
    assert fx.row_ptr[-1] == 49
    assert validate_csr(fx.matrix()) is None


def test_reference_fixture_known_entries():
    fx = reference_fixture()
    assert fx.z[0] == 40.0
    assert fx.z[3] == 113.0
    assert fx.z[27] == 148.0
    assert fx.x[25] == 5.0
    assert fx.col_idx[0] == 25


def test_reference_fixture_unreferenced_columns():
    # columns no stored entry touches; perturbing x there cannot change Ax
    fx = reference_fixture()
    untouched = sorted(set(range(fx.N)) - set(fx.col_idx.tolist()))
    assert untouched == [4, 9, 11, 12, 26]


def test_reference_fixture_returns_fresh_copies():
    a = reference_fixture()
    a.values[0] = 999.0
    b = reference_fixture()
    assert b.values[0] == 8.0


def test_fixture_accessors(ref):
    assert ref.matrix().nnz == ref.nnz
    assert ref.x_vector().n == ref.N
    assert ref.z_vector().n == ref.M
    # accessors hand out read-only views of the fixture's own arrays: they
    # share its memory, and a write raises and leaves the fixture as it was
    mat, x, z = ref.matrix(), ref.x_vector(), ref.z_vector()
    for view, own in ((mat.row_ptr, ref.row_ptr), (mat.col_idx, ref.col_idx),
                      (mat.values, ref.values), (x.values, ref.x),
                      (z.values, ref.z)):
        assert np.shares_memory(view, own)
        with pytest.raises(ValueError, match="read-only"):
            view[0] = -1
    assert ref.x[0] == 3.0
    assert_fixture_equal(ref, reference_fixture())


def test_fixture_accessors_copy_no_entries():
    # NumPy reports its buffers to tracemalloc: copies of the 303,617-entry
    # fixture's arrays would take 4.9 MB
    fx = generate(GenParams(M=3000, N=3000, row_fill=200, seed=1))
    assert fx.nnz == 303_617
    tracemalloc.start()
    try:
        fx.matrix(), fx.x_vector(), fx.z_vector()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


def test_fixture_is_plain_dataclass():
    fx = Fixture(M=1, N=2, row_ptr=[0, 1], col_idx=[1], values=[3.0],
                 x=[1.0, 2.0], z=[6.0])
    assert fx.nnz == 1
    assert fx.metadata == {}
