"""Classification of parabolic subalgebras of simple complex Lie algebras.

Two properties are decided for every parabolic: whether a Richardson element
exists in the first graded part of the induced Z-grading, and whether the
moment map of the cotangent bundle of the corresponding flag variety is
birational onto its image (equal stabilizers in the parabolic and the full
group).  Classical types are classified by closed-form block criteria with
Jordan partitions from one induction formula, all verified against an
exact-arithmetic matrix oracle; exceptional types are served from encoded
tables with orbit dimensions recomputed from root systems.
"""

from .classify import (
    classify,
    covering_degree,
    is_birational_by_blocks,
    is_birational_by_partition,
    is_nice,
    is_sl2_given,
    normal_closure,
)
from .core import (
    NORMAL,
    NOT_NORMAL,
    OUT_OF_SCOPE,
    BlockVector,
    ClassificationReport,
    Coloring,
    DescriptorError,
    InvariantError,
    LieKind,
    UnsupportedKindError,
    all_block_vectors,
    all_colorings,
    blocks_from_coloring,
    coloring_from_blocks,
    n_odd,
    transpose,
)
from .exceptional import (
    appendix_colorings,
    appendix_records,
    exceptional_lookup,
    grading_dims,
    orbit_dim,
    root_system,
)
from .oracle import (
    ExactMatrix,
    generic_nilradical_element,
    jordan_partition,
    levi_dim,
    oracle_richardson_partition,
    realization,
)
from .partitions import richardson_partition
from .verify import run_verification

__version__ = "0.1.0"
