"""Exact computation of canonical-class restrictions on labelled moment
graphs and on generic orbit graphs of the classical families, with
independent cross-checking engines."""

from .exact import (
    LinFrac,
    Poly,
    Weight,
    linfrac_sum_to_poly,
    pair,
    rho_project,
)
from .gkm import (
    GkmGraph,
    OrientedGraphData,
    choose_generic_xi,
    enumerate_paths,
    magnitude,
    validate_gkm,
)
from .canonical import (
    RestrictionTable,
    adjacent_restriction,
    certify_table,
    restriction_ordered,
    restriction_vertex_classes,
    structure_constants,
    verify_tech,
)
from .fibration import (
    FibrationSpec,
    TowerSpec,
    explicit_P,
    fiber_decomposition,
    skipped_vertices,
    tower_restriction,
)
from .orbits import (
    Orbit,
    OrbitSpec,
    RootSystem,
    SignedPerm,
    build_orbit_gkm,
    pairing_check,
    typed_table,
    weyl_length,
)
from .oracle import billey_restriction, cross_validate, engine_entries, engine_entry

__version__ = "0.1.0"
