"""Exact-repair storage codes with per-node dimension k, repair dimension
k-1, and file dimension k^2-1, for systems where any k of n nodes recover
the data and any k repair a failed node.

The package builds a verified code on k+1 nodes from scratch, grows it one
node at a time by sampling random subspaces until one is well aligned with
a repair pair of every k-subset of old nodes, and verifies every property
it claims: data recovery, explicit repair witnesses, the per-repair
decomposition structure, and (on small instances) agreement with a
brute-force repairability oracle.
"""

from .gf import FieldSpec, NotPrimeError
from .linalg import CapExceededError, Matrix, Subspace
from .regen import (
    CheckReport,
    Code,
    CodeDimensionError,
    CodeFileError,
    CodeVersionError,
    MalformedCodeFileError,
    MissingWitnessError,
    Params,
    RepairWitness,
    brute_force_repairable,
    corner_point,
    cutset_bound,
    functional_repair_capacity,
    load_code,
    save_code,
    verify_data_recovery,
    verify_repair_witnesses,
)
from .structure import Decomposition, DecompositionError, compute_decomposition, verify_structure
from .alignment import (
    AlignmentCertificate,
    census_well_aligned,
    count_well_aligned,
    count_well_aligned_lower,
    estimate_probability_monte_carlo,
    is_well_aligned,
    probability_well_aligned,
    sample_well_aligned,
)
from .extend import (
    ExtensionError,
    ExtensionOutcome,
    SynthesisError,
    attempts_bound,
    extend_code,
    find_alignments,
    helper_repair_witness,
    new_node_repair_witness,
    synthesize_base_code,
    synthesize_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "FieldSpec",
    "NotPrimeError",
    "Matrix",
    "Subspace",
    "CapExceededError",
    "Params",
    "Code",
    "RepairWitness",
    "CheckReport",
    "CodeFileError",
    "MalformedCodeFileError",
    "CodeVersionError",
    "CodeDimensionError",
    "MissingWitnessError",
    "corner_point",
    "functional_repair_capacity",
    "cutset_bound",
    "verify_data_recovery",
    "verify_repair_witnesses",
    "brute_force_repairable",
    "save_code",
    "load_code",
    "Decomposition",
    "DecompositionError",
    "compute_decomposition",
    "verify_structure",
    "AlignmentCertificate",
    "is_well_aligned",
    "sample_well_aligned",
    "count_well_aligned",
    "count_well_aligned_lower",
    "census_well_aligned",
    "probability_well_aligned",
    "estimate_probability_monte_carlo",
    "SynthesisError",
    "ExtensionError",
    "ExtensionOutcome",
    "synthesize_decomposition",
    "synthesize_base_code",
    "new_node_repair_witness",
    "helper_repair_witness",
    "find_alignments",
    "extend_code",
    "attempts_bound",
]
