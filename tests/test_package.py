"""The package's public names: each module's __all__, re-exported once."""

import spmvsim
from spmvsim import (collectives, core, distributed, fixture_io, fixtures,
                     layout, verify)

MODULES = (core, layout, collectives, distributed, fixtures, fixture_io, verify)


def test_package_names_are_the_modules_names():
    names = spmvsim.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(spmvsim, name), name
    module_names = {name for module in MODULES for name in module.__all__}
    assert set(names) == module_names | {"__version__"}
    # the oracle's dense storage is a plain array, and the prefix-sum
    # helper is internal to collectives, layout and distributed
    assert "DenseMatrix" not in names
    assert "exclusive_prefix_sums" not in names

