"""Numerical toolkit for slant ruled surfaces.

A ruled surface r(u, v) = f(u) + v q(u) carries an orthonormal frame
{q, h, a} along its director curve on the unit sphere.  This package
computes that frame and its invariants (conical curvature, its derivative,
and the slant invariant sigma), detects whether any frame vector or the
frame's instantaneous rotation vector keeps a fixed angle with a fixed
direction in space, audits the algebraic identities those answers rest on,
and generates surfaces with prescribed conical curvature.
"""

from .frame import (
    FrameTable,
    NonOrthogonalInput,
    RuledSurfaceSpec,
    SampleGrid,
    asymptotic_normal,
    central_normal,
    conical_curvature,
    darboux_vector,
    frame_samples,
    kappa_prime,
    sigma,
    striction_point,
)
from .generators import (
    BadParams,
    ConstantKappa,
    ConstantSigma,
    FramePath,
    GeneratorConfig,
    KappaProfile,
    OutOfDomain,
    TabulatedKappa,
    UnknownCatalogName,
    build_surface,
    catalog,
    catalog_names,
    integrate_frame,
    kappa_of_s1,
)
from .geometry import (
    EPS_CYL,
    CylindricalDirector,
    Jet3,
    NonFiniteSample,
    det3,
    fd_jet,
)
from .slant import (
    AuditCheck,
    AuditRecord,
    AxisFit,
    ConstancyResult,
    EmptyInput,
    SlantReport,
    SlantVerdict,
    classify,
    classify_samples,
    constancy,
    detect_axis,
    h_slant_axis,
    verify_corollary_3_1,
    verify_theorem_2_1,
    verify_theorem_3_1,
    verify_theorem_3_2,
    verify_theorems_3_3_3_4,
)
from .surface_io import (
    TOOL_VERSION as __version__,
    SpecError,
    csv_table,
    dumps_deterministic,
    export_obj,
    load_surface,
    read_spec,
    report_document,
    sampled_spec_document,
    write_json_atomic,
    write_text_atomic,
)
