"""Finite paradoxicality certificates for classical homogeneous spaces.

The package builds derivation trees ("certificates") showing that the
isometry groups O(n), U(n), Sp(n) act paradoxically on spheres, projective
spaces, Grassmannians, and flag manifolds over R, C, and H; structurally
checks the trees; and verifies every inference empirically on finite orbit
fragments with exact arithmetic wherever an exact backend exists.

Typical use:

    >>> from paradoxcert import derive, check, verify
    >>> root = derive("flag(R;1,2,3)")
    >>> check(root)["ok"]
    True
    >>> verify(root, depth=4, samples=50)["overall"]
    'pass'
"""

from .certificates import (
    Node,
    RULES,
    cert_from_json,
    cert_to_json,
    check,
    derive,
)
from .errors import (
    CertificateError,
    DescriptorError,
    DomainError,
    GapCaseError,
    ParadoxError,
    SeedFixedError,
    VerificationError,
)
from .freegroup import (
    absorber_check,
    axis_of,
    check_freeness,
    default_absorber,
    exceptional_set,
    get_pair,
)
from .spaces import (
    FlagPoint,
    ProjectivePoint,
    SpaceExpr,
    SpherePoint,
    Subspace,
    act,
    equals,
    parse_descriptor,
)
from .verification import (
    RunConfig,
    classify,
    equidecomp_verify,
    orbit_fragment,
    reassembly_check,
    verify,
)
from .words import (
    check_translate_identity,
    classify_prefix,
    enumerate_ball,
    reduce,
    word_text,
)

__version__ = "0.1.0"

__all__ = [
    "CertificateError",
    "DescriptorError",
    "DomainError",
    "FlagPoint",
    "GapCaseError",
    "Node",
    "ParadoxError",
    "ProjectivePoint",
    "RULES",
    "RunConfig",
    "SeedFixedError",
    "SpaceExpr",
    "SpherePoint",
    "Subspace",
    "VerificationError",
    "absorber_check",
    "act",
    "axis_of",
    "cert_from_json",
    "cert_to_json",
    "check",
    "check_freeness",
    "check_translate_identity",
    "classify",
    "classify_prefix",
    "default_absorber",
    "derive",
    "enumerate_ball",
    "equals",
    "equidecomp_verify",
    "exceptional_set",
    "get_pair",
    "orbit_fragment",
    "parse_descriptor",
    "reassembly_check",
    "reduce",
    "verify",
    "word_text",
]
