"""Rank heuristics for curve fibrations over Q(t) via averaged Frobenius traces."""

from importlib import resources

from .accumulator import (
    NagaoSeries,
    SeriesEntry,
    average_trace,
    cesaro_series,
    compute_entry,
    compute_series,
    dirichlet_residue,
    family_hash,
    reduced_average_trace,
    synthetic_entries,
    trace_correction,
    variant_average,
)
from .family_model import (
    BivarPoly,
    FamilySpec,
    FiberConfiguration,
    bad_primes,
    fiber_at,
    parse_family,
    parse_poly,
    render_family,
)
from .fiber_trace import (
    FiberTraceRecord,
    component_count,
    count_affine,
    discriminant_locus,
    fiber_trace,
    points_at_infinity,
)
from .prime_field import FieldCtx, make_field, primes_in_range
from .shioda_tate import form5_diagnostic, ns_rank, rank_S, rank_S_Gk, trace_on_S

__version__ = "0.1.0"


def load_shipped_family(name: str) -> FamilySpec:
    """Parse one of the family files shipped with the package."""
    text = resources.files(__name__).joinpath(f"families/{name}.fam").read_text()
    return parse_family(text)


def shipped_family_names() -> list[str]:
    root = resources.files(__name__).joinpath("families")
    return sorted(f.name[:-4] for f in root.iterdir() if f.name.endswith(".fam"))
