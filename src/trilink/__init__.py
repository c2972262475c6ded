"""Exact-integer computations around Milnor's triple linking number.

Free-group longitude words feed a truncated Magnus expansion whose
degree-2 coefficients carry mu-bar(123); Seifert matrices with chosen
metabolizers produce the generator whose integer multiples are realized
as differences of mu-bar across derivative links; string-link infection
shifts mu-bar by a determinant of disk/component intersection counts.
All arithmetic is exact (Python ints end to end).
"""

from .errors import CrossCheckError, PreconditionError
from .infection import (
    BandSumCounts,
    IntersectionProfile,
    band_sum_expansion,
    infected_mu,
)
from .magnus import MagnusSeries, lcs_depth, mu123, phi
from .nilpotent import CommutatorClass, class_of, commutator_class
from .realization import GenusThreeParams, Ledger, LedgerDescription, ledger
from .seifert import (
    GeneratorResult,
    GenusOneNormalization,
    MetabolizerBasis,
    MetabolizerVerdict,
    SeifertMatrix,
    connected_sum,
    enumerate_metabolizers,
    generator_for_metabolizer,
    generator_from_block,
    generator_on_two_bases,
    genus_one_normalize,
    metabolizer_verdict,
    normalize_e,
    reorder,
    standard_metabolizer,
    symplectic_complete,
)
from .words import FreeWord, commutator, generator, parse_word

__version__ = "0.1.0"

__all__ = [
    "BandSumCounts",
    "CommutatorClass",
    "CrossCheckError",
    "FreeWord",
    "GeneratorResult",
    "GenusOneNormalization",
    "GenusThreeParams",
    "IntersectionProfile",
    "Ledger",
    "LedgerDescription",
    "MagnusSeries",
    "MetabolizerBasis",
    "MetabolizerVerdict",
    "PreconditionError",
    "SeifertMatrix",
    "band_sum_expansion",
    "class_of",
    "commutator",
    "commutator_class",
    "connected_sum",
    "enumerate_metabolizers",
    "generator",
    "generator_for_metabolizer",
    "generator_from_block",
    "generator_on_two_bases",
    "genus_one_normalize",
    "infected_mu",
    "lcs_depth",
    "ledger",
    "metabolizer_verdict",
    "mu123",
    "normalize_e",
    "parse_word",
    "phi",
    "reorder",
    "standard_metabolizer",
    "symplectic_complete",
]
