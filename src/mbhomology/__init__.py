"""Exact-arithmetic Morse-Bott homology from finite flow presentations."""

from .exactalg import (
    IntMatrix,
    SmithDecomposition,
    snf,
    rank,
)
from .chain import (
    ChainComplex,
    ChainMap,
    HomologyGroup,
    validate_complex,
    homology_at,
    mapping_cone,
    quasi_iso,
)
from .simplicial import (
    SimplicialComplexData,
    SimplicialMap,
    OrientedCycle,
    NoFundamentalCycle,
    CoveringError,
    chain_complex_of,
    fundamental_cycle,
    pushforward,
    covering_pullback,
)
from .multicomplex import (
    MBSMulticomplex,
    MulticomplexReport,
    TotalComplexView,
    InvalidMulticomplex,
    validate_multicomplex,
    totalize,
)
from .pipeline import homology_table
from .flowdata import (
    CritModel,
    ModuliComponentModel,
    FlowPresentation,
    FlowDataError,
    InconsistentFlowData,
    fat_point_row,
    build_multicomplex,
    morse_to_flow,
    default_column_cap,
)
from .morse import (
    MorseData,
    InvalidMorseData,
    morse_complex,
    phi_embed,
    phi_chain_map,
    verify_morse_mb,
)

__version__ = "0.1.0"
