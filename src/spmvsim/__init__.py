"""Sparse matrix-vector multiplication over CSR storage with a
deterministic in-process simulation of message-passing ranks, plus fixture
generation, serialization, and verification tooling."""

from . import collectives, core, distributed, fixture_io, fixtures, layout, verify
from .core import *  # noqa: F401,F403
from .layout import *  # noqa: F401,F403
from .collectives import *  # noqa: F401,F403
from .distributed import *  # noqa: F401,F403
from .fixtures import *  # noqa: F401,F403
from .fixture_io import *  # noqa: F401,F403
from .verify import *  # noqa: F401,F403

__version__ = "0.1.0"

# the package's public names are exactly its modules' own
__all__ = [*core.__all__, *layout.__all__, *collectives.__all__,
           *distributed.__all__, *fixtures.__all__, *fixture_io.__all__,
           *verify.__all__, "__version__"]
