"""Harmonic sketches: turnstile frequency-moment estimation over finite
abelian groups via character-decomposed triple towers, with a
singleton-detection sampling baseline and a Monte-Carlo benchmark harness."""

from .errors import (
    CannotCombineError,
    CorruptSketchError,
    DomainError,
    GroupMismatchError,
    HSketchError,
    InvalidConfigError,
    InvalidGroupError,
    InvalidRHatError,
    InvalidWorkloadError,
    NoSamplesError,
    RegisterOverflowError,
    SaturatedError,
    SchemaError,
)
from .estimator import (
    ColumnAggregates,
    EstimateReport,
    RHatTable,
    column_aggregates,
    estimate_f,
    estimate_modulo,
    estimate_support,
    estimate_union,
    modulo_spectrum,
    predict_variance,
    rhat_from_pmf,
    truncation_tail,
    variance_factor,
)
from .groups import (
    FunctionTable,
    GroupDescriptor,
    SpectrumTable,
    dft,
    idft,
    make_group,
)
from .sampler import (
    SamplerSketch,
    equal_memory_m_prime,
    sample_f_moment,
    tau_gra_density,
    tau_gra_estimate,
)
from .special import gamma_fn
from .tower import (
    IntegerTowerSketch,
    SketchConfig,
    TowerSketch,
    combine_product,
    default_window,
    deserialize,
    sketch_new,
    theoretical_window,
)
from .workloads import TruthTable, WorkloadSpec, gen_stream, signed_representative

__version__ = "0.1.0"
