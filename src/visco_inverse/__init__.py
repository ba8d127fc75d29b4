"""Spectral simulation and single-measurement source recovery for damped
wave systems whose restoring force carries a convolution memory.

The package instantiates a one-dimensional string operator with endpoint
slope observation, integrates the modal memory equations, analyses the
resulting boundary-trace families as frames, and inverts a modulated source
from one measured trace via biorthogonal reconstruction kernels.
"""

from .errors import NumericsError, SingularGramError
from .forward import (
    SourceCoefficients,
    boundary_trace_source,
    source_trace,
    source_trace_prime,
    source_traces,
)
from .frames import (
    FrameBounds,
    GramMatrix,
    biorthogonality_defect,
    coefficients_via_duals,
    dual_coefficients,
    frame_bounds,
    gram,
    leading_frame_bounds,
    w_trace_family,
    y_trace_family,
    z_trace_family,
)
from .inverse import (
    CounterexampleTable,
    ReconstructionKernels,
    ReconstructionReport,
    build_reconstruction,
    l2_only_counterexample,
    noisy_reconstruction,
    reconstruct,
    reconstruct_complex,
    stability_gram,
    stability_ratios,
)
from .modal import (
    ModalFamily,
    ModalTrajectory,
    comparison_defect_scan,
    solve_w_many,
    solve_z_many,
)
from .spectral import (
    Mode,
    ModeArrays,
    OperatorSpec,
    SpectralModel,
    build_spectral_model,
)
from .volterra import (
    AffineModulation,
    ConstantModulation,
    ExponentialKernel,
    ExponentialModulation,
    MemoryKernel,
    PolynomialKernel,
    SampledKernel,
    SampledModulation,
    ScalarSignal,
    SourceModulation,
    TimeGrid,
    TraceSignal,
    ZeroKernel,
    convolve,
    convolve_adjoint,
    differentiate,
    h1_norm,
    inner_products,
    l2_inner,
    l2_norm,
    resolvent_kernel,
)

__version__ = "0.1.0"
