"""Train track maps, fold lines, and the lone-axis test for free group
outer automorphisms.

Given a graph self-map presenting an outer automorphism of a free
group, the package verifies the train track property, computes the
dilatation and eigenmetric, certifies the absence of Nielsen paths,
builds Whitehead graphs and the rotationless index, decides whether the
axis bundle degenerates to a single periodic fold line, and compares
two maps for conjugate powers through canonical fold signatures.
"""

from .errors import (DecompositionError, InternalCheckError,
                     InvalidGraphError, InvalidMapError, LoneAxisError,
                     NielsenPathPresentError, NotLoneAxisError, ParseError,
                     PreconditionError)
from .graphs import (GraphMap, MarkedGraph, compose, power, rev_edge,
                     rev_path, rose, rose_map)
from .isomorphism import canonical_encoding, canonical_form
from .spectral import (PFData, TransitionMatrix, dilatation, eigenmetric,
                       matrix_class, pf_data, transition_matrix)
from .traintrack import (GateStructure, PeriodicStructure, direction_map,
                         gate_index_sum, gates, is_rotationless,
                         is_train_track, periodic_structure, taken_turns)
from .nielsen import (NielsenPathReport, ageometric_certificate,
                      find_nielsen_paths, np_verdict)
from .whitehead import (IndexReport, WhiteheadGraph, cut_vertices,
                        ideal_whitehead_graph, index_report,
                        local_whitehead_graph, stable_whitehead_graph,
                        to_dot, whitehead_isomorphic)
from .axes import (AxisSignature, ConjugacyVerdict, FoldMove, FoldSequence,
                   LoneAxisReport, axis_signature, conjugate_power_check,
                   fold_line, lone_axis_decision, stallings_decomposition)
from .cli import GraphMapDocument, parse_document, serialize_document

__version__ = "0.1.0"
