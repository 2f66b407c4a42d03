"""Exact decision procedures for semigroup intersection problems in
unipotent matrix groups over the rationals.

The package decides, with exact rational arithmetic throughout:

* whether finitely many finitely generated sub-semigroups of a 2-step
  nilpotent subgroup of UT(n, Q) have a common element, producing an
  explicit verifiable witness word per semigroup when they do;
* whether two translated semigroup orbits in the 3x3 unipotent group
  intersect, again with verified witnesses.

Number-field instances (Heisenberg groups over Q(alpha), and direct
products of such) are embedded into UT(n*d, Q) up front, so every
decision runs over plain rational matrices.
"""

from .matlie import (
    UnipotentMatrix,
    GeneratorSystem,
    log_unipotent,
    is_two_step,
    bch_log,
    product_of_word,
    direct_sum,
)
from .wordcraft import (
    Word,
    parikh,
    delta_table,
    two_letter_permutation,
    realize_word,
)
from .linsolve import (
    eliminate,
    lp_feasible,
    support_nonneg,
    IntegerSolutionSet,
    hnf_solve,
    ilp_feasible_nonneg,
    ConeMeet,
    cone_intersect_dim,
)
from .numfield import (
    NumberField,
    embed_heisenberg,
)
from .intersect import (
    Verdict,
    Decision,
    IntersectionInstance,
    build_condition_space,
    decide_intersection,
    extract_witness,
)
from .orbit import (
    OrbitInstance,
    reduce_to_identity,
    decide_orbit,
    decide_easy,
    decide_hard,
    extract_orbit_witness,
)
from .oracle import OracleResult, bfs_oracle
from .instances import (
    InstanceFile,
    ParseError,
    ValidationError,
    load_instance_file,
    parse_instance_text,
)
from .errors import UnsupportedInstance, BudgetExceeded, MemoryBudgetExceeded

__version__ = "0.1.0"
