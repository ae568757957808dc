"""Exact q-series rank generating functions and the combinatorics behind them.

The package has four layers:

``qranks.series``      truncated power series in q over integer Laurent
                       polynomials, with Pochhammer-product builders;
``qranks.combinat``    partitions, strongly unimodal sequences, their
                       two-row symbols, marked versions, rank statistics,
                       and bijections;
``qranks.genfun``      every rank generating function as an exact series;
``qranks.specialize``  evaluation at vectors of roots of unity (exact over
                       the Gaussian integers for fourth roots, else float
                       with recorded error bounds).

``qranks.cli`` exposes the same functionality as the ``qranks`` command.
"""

from .combinat import (
    DurfeeSymbol,
    KMarkedDurfeeSymbol,
    KMarkedSUSymbol,
    MarkedPart,
    Partition,
    SUSequence,
    SUSymbol,
    count_complete_odd_partitions,
    count_even_part_parity,
    count_marked_durfee,
    count_marked_unimodal,
    count_partitions_by_rank,
    count_self_conjugate,
    count_unimodal_by_rank,
    count_unimodal_total,
    durfee_decompose,
    durfee_ranks,
    durfee_recompose,
    dyson_rank,
    enumerate_complete_odd_partitions,
    enumerate_marked_durfee,
    enumerate_marked_unimodal,
    enumerate_partitions,
    enumerate_self_conjugate_symbols,
    enumerate_su_sequences,
    odd_parts_to_self_conjugate,
    rank_census_marked_durfee,
    rank_census_marked_unimodal,
    rank_census_partitions,
    rank_census_unimodal,
    self_conjugate_to_odd_parts,
    su_rank,
    su_sequence,
    su_symbol,
    unimodal_ranks,
)
from .genfun import (
    even_part_parity_series,
    marked_durfee_rank_series,
    marked_unimodal_rank_series,
    mock_theta_psi,
    partition_rank_series,
    partition_series,
    self_conjugate_series,
    unimodal_rank_series,
)
from .series import FactorSpec, LaurentCoefficient, TruncatedSeries, pochhammer
from .specialize import (
    ComplexSeries,
    GaussianSeries,
    RootOfUnityVector,
    specialize_exact,
    specialize_numeric,
)

__version__ = "0.1.0"

# every public class and function imported above, and nothing else
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_")
                 and getattr(value, "__module__", "").startswith("qranks."))
