"""The names the package exports: a change to this set is a change to the
library's public surface and should be made on purpose."""

import types

import mbhomology

PUBLIC = {
    # exactalg
    "IntMatrix", "SmithDecomposition", "snf", "rank",
    # chain
    "ChainComplex", "ChainMap", "HomologyGroup", "validate_complex",
    "homology_at", "mapping_cone", "quasi_iso",
    # simplicial
    "SimplicialComplexData", "SimplicialMap", "OrientedCycle",
    "NoFundamentalCycle", "CoveringError", "chain_complex_of",
    "fundamental_cycle", "pushforward", "covering_pullback",
    # multicomplex and pipeline
    "MBSMulticomplex", "MulticomplexReport", "TotalComplexView",
    "InvalidMulticomplex", "validate_multicomplex", "totalize",
    "homology_table",
    # flowdata
    "CritModel", "ModuliComponentModel", "FlowPresentation", "FlowDataError",
    "InconsistentFlowData", "fat_point_row", "build_multicomplex",
    "morse_to_flow", "default_column_cap",
    # morse
    "MorseData", "InvalidMorseData", "morse_complex", "phi_embed",
    "phi_chain_map", "verify_morse_mb",
}


def test_public_names():
    exported = {name for name, value in vars(mbhomology).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC
