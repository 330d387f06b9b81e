"""Relative cell complexes over finite truncated semisimplicial sets.

The package provides the base category of complexes and maps (``delta``),
single gluing stages and their bodies (``strata``), proper connected cell
complexes, with their normal form, morphisms and (co)limits (``cellcx``),
the free factorization with its monad, comonad, and distributivity law
suite (``soa``), a lifting solver against filler tables (``lifting``), JSON
serialization (``jsonio``), seeded corpus generators (``gen``), and a
command-line interface (``cli``).
"""

from .delta import (
    ArrowSquare,
    DeltaComplex,
    DeltaError,
    EMPTY,
    InvariantError,
    SimplicialMap,
    boundary_complex,
    boundary_restriction,
    characteristic_map,
    coequaliser,
    colimit,
    compose,
    composes_to,
    coproduct,
    enumerate_homs,
    equaliser,
    identity_map,
    inclusion_map,
    is_pullback,
    mec,
    mediate,
    pushout,
    standard_simplex,
    top_simplex_id,
)
from .strata import (
    StrataError,
    Stratum,
    body,
)
from .cellcx import (
    CellComplex,
    CellComplexError,
    CellComplexMorphism,
    assemble,
    cellcx_colimit,
    cellcx_coproduct,
    cellcx_equaliser,
    complex_of,
    compose_complexes,
    compose_morphisms,
    generator_complex,
    horizontal_compose,
    identity_morphism,
    is_isomorphism,
    pushforward_complex,
    trivial_complex,
    u_of_complex,
    u_of_morphism,
)
from .soa import (
    CapExceededError,
    FactorResult,
    Factorizer,
    check_awfs_laws,
    coalgebra_structure,
    comonad_comult,
    composite_left_map,
    decode,
    free_complex,
    k1_step,
    k_of_square,
    monad_mult,
    monad_unit,
    pushforward_left_map,
    transpose,
    unit,
)
from .lifting import (
    FillerTable,
    LiftError,
    free_fillers,
    solve_lifting,
    square_key,
    verify_fillers,
)

__version__ = "0.1.0"
