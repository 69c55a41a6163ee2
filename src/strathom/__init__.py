"""Exact-arithmetic intersection homology and pyramid/prism h-calculus."""

__version__ = "0.1.0"

from .complexes import StratifiedComplex, Perversity, allowable_simplex
from .facelattice import FaceLattice, FlagVector, flag_vector, flag_rank
from .hcalc import eval_word, ic_check, fit_and_predict
from .ihomology import ih_ranks
from .lghomology import WSequence, lg_ranks

__all__ = [
    "StratifiedComplex",
    "Perversity",
    "allowable_simplex",
    "FaceLattice",
    "FlagVector",
    "flag_vector",
    "flag_rank",
    "eval_word",
    "ic_check",
    "fit_and_predict",
    "ih_ranks",
    "lg_ranks",
    "WSequence",
]
