"""Exact knot invariants of braid closures and surgery obstruction reports.

The package computes invariants of links presented as braid closures or
planar diagrams (signature, determinant, genus of positive diagrams, the
two-variable skein polynomial) with exact integer arithmetic, and combines
them into machine-checkable certificates ruling out Seifert fibered
surgeries on a two-parameter family of pretzel knots.
"""

from .braid import (
    BraidWord,
    GarsideNormalForm,
    PermutationBraid,
    braids_equal,
    contains_full_twist,
    exponent_sum,
    full_twist,
    normal_form,
    parse_braid,
    permutation_of,
    quotient_braid,
    torus_braid,
)
from .certify import (
    CertificateReport,
    ExclusionVerdict,
    SlopeReport,
    certify_no_sfs,
    exclude_montesinos_knot,
    exclude_montesinos_link_two_components,
    exclude_seifert_link_two_components,
    exclude_torus_knot,
    pretzel_quotient_braid,
    quotient_knot_genus,
    torus_knot_genus_conflict,
)
from .diagram import (
    Crossing,
    LinkDiagram,
    braid_closure,
    component_count,
    determinant,
    faces,
    from_pd_text,
    goeritz,
    mirror,
    pretzel_diagram,
    seifert_circle_count,
    signature_and_determinant,
    to_pd_text,
    writhe,
)
from .homfly import LaurentPoly2, det_from_homfly, homfly, mfw_bound
from .invariants import (
    det_from_alexander,
    positive_genus,
    torus_alexander,
    torus_det_4x,
    torus_genus,
)

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CertificateReport",
    "Crossing",
    "ExclusionVerdict",
    "GarsideNormalForm",
    "LaurentPoly2",
    "LinkDiagram",
    "PermutationBraid",
    "SlopeReport",
    "braid_closure",
    "braids_equal",
    "certify_no_sfs",
    "component_count",
    "contains_full_twist",
    "exclude_montesinos_knot",
    "exclude_montesinos_link_two_components",
    "exclude_seifert_link_two_components",
    "exclude_torus_knot",
    "torus_knot_genus_conflict",
    "det_from_alexander",
    "det_from_homfly",
    "determinant",
    "exponent_sum",
    "faces",
    "from_pd_text",
    "full_twist",
    "goeritz",
    "homfly",
    "mfw_bound",
    "mirror",
    "normal_form",
    "parse_braid",
    "permutation_of",
    "positive_genus",
    "pretzel_diagram",
    "pretzel_quotient_braid",
    "quotient_braid",
    "quotient_knot_genus",
    "seifert_circle_count",
    "signature_and_determinant",
    "to_pd_text",
    "torus_alexander",
    "torus_braid",
    "torus_det_4x",
    "torus_genus",
    "writhe",
    "__version__",
]
