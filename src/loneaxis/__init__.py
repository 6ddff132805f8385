"""Train track maps, fold lines, and the lone-axis test for free group
outer automorphisms.

Given a graph self-map presenting an outer automorphism of a free
group, the package verifies the train track property, computes the
dilatation and eigenmetric, certifies the absence of Nielsen paths,
builds Whitehead graphs and the rotationless index, decides whether the
axis bundle degenerates to a single periodic fold line, and compares
two maps for conjugate powers through canonical fold signatures.
"""

__version__ = "0.1.0"

# each name is imported from its module on first access (PEP 562), so a
# bare ``import loneaxis`` loads no module of the package
_EXPORTS = {
    "errors": """DecompositionError InternalCheckError InvalidGraphError
        InvalidMapError LoneAxisError NielsenPathPresentError NotLoneAxisError
        ParseError PreconditionError""",
    "graphs": "GraphMap MarkedGraph compose power rev_edge rev_path rose rose_map",
    "isomorphism": "canonical_encoding canonical_form",
    "spectral": """PFData TransitionMatrix dilatation eigenmetric matrix_class
        pf_data transition_matrix""",
    "traintrack": """GateStructure PeriodicStructure direction_map gate_index_sum
        gates is_rotationless is_train_track periodic_structure taken_turns""",
    "nielsen": "NielsenPathReport find_nielsen_paths np_verdict",
    "whitehead": """IndexReport WhiteheadGraph cut_vertices ideal_whitehead_graph
        index_report local_whitehead_graph stable_whitehead_graph to_dot
        whitehead_isomorphic""",
    "axes": """AxisSignature ConjugacyVerdict FoldMove FoldSequence LoneAxisReport
        axis_signature conjugate_power_check fold_line lone_axis_decision
        stallings_decomposition""",
    "cli": "GraphMapDocument parse_document serialize_document",
}
_HOME = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    from importlib import import_module
    if name in _EXPORTS:   # a submodule is an attribute of the package
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f"{__name__}.{_HOME[name]}")
    globals()[name] = value = getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOME.keys())
