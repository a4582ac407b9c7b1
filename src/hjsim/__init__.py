"""hjsim: event-driven simulation and long-run diagnostics for scalar
diffusions whose jumps are driven by a mutually exciting point process
with exponentially fading memory."""

__version__ = "0.1.0"

from .model import (
    AffineClippedRate,
    AssumptionReport,
    BoundedSmoothDrift,
    CoefficientSpec,
    ConfigError,
    ConstantDiffusion,
    ConstantJump,
    ConstantRate,
    KernelMatrix,
    LinearDampingJump,
    LinearDrift,
    ModelSpec,
    PowerBoundedJump,
    SigmoidRate,
    SmoothBoundedDiffusion,
    State,
    check_assumptions,
    model_digest,
    model_from_dict,
    model_to_dict,
)
from .diffusion import (
    EulerMaruyama,
    ExactOU,
    IntegratorConfig,
)
from .engine import (
    Path,
    SimulationLimitError,
    simulate_ensemble,
    simulate_path,
    simulate_path_reference,
)
from .rng import RandomStream, derive_path_seed
from .stability import (
    DriftScanResult,
    LyapunovSpec,
    NonConvergenceError,
    StabilityData,
    drift_scan,
    dynkin_quotient,
    generator_apply,
    interaction_matrix,
    lyapunov_value,
    perron_left_vector,
    spectral_radius,
    stability_data,
    stability_report,
    vandermonde_check,
    vandermonde_matrix,
)
from .diagnostics import (
    AutocorrelationFit,
    DensityEstimate,
    ErgodicEstimate,
    MixingCurve,
    autocorr_decay,
    invariant_histogram,
    mixing_curve,
    regular_samples,
    states_at,
    time_average,
    tv_histogram,
)
