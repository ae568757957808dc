"""Exact q-series rank generating functions and the combinatorics behind them.

The package has four layers:

``qranks.series``      truncated power series in q over integer Laurent
                       polynomials, with Pochhammer-product builders;
``qranks.combinat``    partitions, strongly unimodal sequences, their
                       two-row symbols, marked versions (listed in
                       ``qranks.marked``), rank statistics, and bijections;
``qranks.genfun``      every rank generating function as an exact series;
``qranks.specialize``  evaluation at vectors of roots of unity (exact over
                       the Gaussian integers for fourth roots, else float
                       with recorded error bounds).

``qranks.cli`` exposes the same functionality as the ``qranks`` command.

``import qranks`` loads ``series`` and ``genfun``.  ``combinat`` and
``specialize`` load when one of their names is first looked up here, or
when ``qranks.cli`` (or, for ``combinat``, a census-reading builder)
imports them, so a program that only builds series loads neither.
Nothing is cached here: each lookup reads the module again.
"""

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

__version__ = "0.1.0"

# public names of combinat and specialize, resolved by __getattr__ on first use
_COMBINAT = (
    "DurfeeSymbol",
    "KMarkedDurfeeSymbol",
    "KMarkedSUSymbol",
    "MarkedPart",
    "Partition",
    "SUSequence",
    "SUSymbol",
    "count_complete_odd_partitions",
    "count_even_part_parity",
    "count_self_conjugate",
    "durfee_decompose",
    "durfee_ranks",
    "durfee_recompose",
    "dyson_rank",
    "enumerate_complete_odd_partitions",
    "enumerate_marked_durfee",
    "enumerate_marked_unimodal",
    "enumerate_partitions",
    "enumerate_self_conjugate_symbols",
    "enumerate_su_sequences",
    "even_part_parity_counts",
    "marked_durfee_censuses",
    "marked_unimodal_censuses",
    "marked_unimodal_counts",
    "odd_parts_to_self_conjugate",
    "rank_census_marked_durfee",
    "rank_census_marked_unimodal",
    "rank_census_partitions",
    "rank_census_unimodal",
    "self_conjugate_to_odd_parts",
    "su_rank",
    "su_sequence",
    "su_symbol",
    "unimodal_ranks",
)
_SPECIALIZE = ("ComplexSeries", "GaussianSeries", "RootOfUnityVector", "specialize_exact",
               "specialize_numeric")


def __getattr__(name):
    if name in _COMBINAT:
        from . import combinat as module
    elif name in _SPECIALIZE:
        from . import specialize as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(_COMBINAT) | set(_SPECIALIZE))


# every public class and function imported above or resolved by __getattr__
__all__ = sorted(_COMBINAT + _SPECIALIZE + tuple(
    name for name, value in globals().items()
    if not name.startswith("_") and getattr(value, "__module__", "").startswith("qranks.")))
