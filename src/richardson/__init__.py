"""Classification of parabolic subalgebras of simple complex Lie algebras.

Two properties are decided for every parabolic: whether a Richardson element
exists in the first graded part of the induced Z-grading, and whether the
moment map of the cotangent bundle of the corresponding flag variety is
birational onto its image (equal stabilizers in the parabolic and the full
group).  Classical types are decided by closed forms: the Jordan partition
by one induction formula that an exact-arithmetic matrix oracle verifies,
niceness as that partition being the generic Jordan type on g_1, and
birationality as niceness plus the stabilizer test on the partition.
Exceptional types come from encoded tables, orbit dimensions from roots.
"""

# Each module's __all__ is the one statement of what the package exports.
# PEP 8 allows wildcard imports to republish an internal interface as the
# public API; they run in layer order, and no name is in two __all__ lists.
from .core import *
from .partitions import *
from .oracle import *
from .exceptional import *
from .classify import *
from .verify import *

__version__ = "0.1.0"
