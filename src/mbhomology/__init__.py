"""Exact-arithmetic Morse-Bott homology from finite flow presentations.

The public names below resolve on first access, so importing one submodule
(the command line imports `mbhomology.cli`) loads only what it uses.
"""

# public name -> the submodule that defines it
_HOME = {
    **dict.fromkeys(("IntMatrix", "SmithDecomposition", "snf"), "exactalg"),
    **dict.fromkeys(("ChainComplex", "ChainMap", "HomologyGroup",
                     "validate_complex", "homology_at", "mapping_cone",
                     "quasi_iso"), "chain"),
    **dict.fromkeys(("SimplicialComplexData", "SimplicialMap",
                     "OrientedCycle", "NoFundamentalCycle", "CoveringError",
                     "chain_complex_of", "fundamental_cycle", "pushforward"),
                    "simplicial"),
    **dict.fromkeys(("MBSMulticomplex", "MulticomplexReport",
                     "InvalidMulticomplex", "validate_multicomplex",
                     "totalize"), "multicomplex"),
    "homology_table": "pipeline",
    **dict.fromkeys(("CritModel", "ModuliComponentModel", "FlowPresentation",
                     "FlowDataError", "build_multicomplex",
                     "morse_to_flow", "default_column_cap"), "flowdata"),
    **dict.fromkeys(("MorseData", "InvalidMorseData", "morse_complex",
                     "phi_chain_map", "verify_morse_mb"), "morse"),
}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
