"""Finite multiplicative lattices and element classification."""

from .classify import (
    CANONICAL_SETS,
    MClosedSet,
    NotMClosed,
    NotXMultClosed,
    PreconditionViolated,
    XMultClosedSet,
    canonical_sets,
    downset_m_closed,
    is_j_element,
    is_n_element,
    is_r_element,
    is_x_element,
    is_x_mult_closed,
    jacobson_downset,
    make_m_closed,
    make_x_mult_closed,
    maximal_x_avoiding,
    nil_downset,
    principal_generator,
    x_element_mask,
    x_elements,
    x_mult_closed_witness,
    x_witness,
    zero_divisor_set,
)
from .corpus import acceptance_corpus, chain_lattice, kite_lattice, parse_corpus_spec
from .dot import hasse_dot
from .lemmas import CheckResult, SuiteReport, lemma_suite
from .multiplicative import (
    AxiomViolation,
    DegenerateLattice,
    MultiplicativeLattice,
    RadicalMismatch,
    TopJoinReducible,
    attach_multiplication,
    meet_mult,
    product,
    trivial_mult,
)
from .order import (
    CycleError,
    FiniteLattice,
    NotALattice,
    PartialOrder,
    build_order,
    lattice_from_pairs,
    validate_lattice,
)
from .report import (
    ClassificationReport,
    classify_lattice,
    check_report_witnesses,
    render_report,
    report_from_json,
    report_to_json,
)
from .ringbridge import (
    CrossValidationMismatch,
    ProductRingModel,
    ZnIdealModel,
    cross_validate,
    cross_validate_product,
    cross_validate_zn,
    ideal_lattice_product,
    ideal_lattice_zn,
    ring_is_j_ideal,
    ring_is_n_ideal,
    ring_is_r_ideal,
)
from .search import SearchHit, search_corpus
from .specfile import (
    LatticeSpecFile,
    ParseError,
    load_path,
    load_spec,
    loads,
    parse_spec,
    render_spec,
)
