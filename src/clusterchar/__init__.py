"""Cluster characters over quiver algebras, with independent oracles.

The pipeline: `laurent` and `linalg` provide exact arithmetic; `quiver`
presents an algebra by quiver and relations and computes its path basis;
`modules` does Hom/Ext/syzygy work in the module category; `grassmannian`
counts submodules over prime fields and interpolates Euler
characteristics; `forms` builds the (antisymmetrized) Euler form and
index/coindex; `character` evaluates the cluster character.  `mutation`
is an independent seed-mutation oracle and `polygon` an exhaustive
type-A harness tying the two sides together.
"""

from .character import CCObject, cc_product, cc_value, module_object, shift_object, verify_triangle
from .errors import (
    AlgebraBuildError,
    ClusterCharError,
    ConsistencyError,
    DimensionError,
    InputError,
    LaurentDivisionError,
    NonPolynomialCountError,
    NotFiniteTypeError,
    ResourceLimitError,
)
from .forms import antisym_form_matrix, coindex, euler_form, index
from .grassmannian import count_points, euler_char, submodule_classes
from .laurent import LaurentPoly, laurent_divexact, laurent_render
from .modules import (
    Representation,
    direct_sum,
    dual,
    ext1_dim,
    hom_dim,
    injective,
    load_module,
    load_module_file,
    min_inj_copresentation,
    min_proj_presentation,
    projective,
    simple,
    syzygy,
    zero_module,
)
from .mutation import (
    Seed,
    enumerate_cluster_variables,
    initial_seed,
    mutate_matrix,
    mutate_seed,
    quiver_to_matrix,
)
from .polygon import Arc, all_arcs, arc_to_object, crossing, smoothings, verify_an
from .quiver import AlgebraPresentation, Quiver, build_algebra, load_algebra, load_algebra_file

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
