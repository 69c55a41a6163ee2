"""The h-vector calculus attached to pyramid and prism steps.

Rule I is convolution with (1, 1); rule C repeats the middle entry of a
palindromic vector.  Evaluating a word over {I, C} on the vector (1)
mirrors building the polytope from a point, and the resulting h-vector
is a linear function of the flag vector, recovered here by exact
rational fitting.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .exactla import ColumnReduction, solve_right
from .facelattice import (
    FlagVector,
    dual,
    flag_vector,
    ic_lattices,
    parse_word,
    subset_order,
)


def _check_vector(h):
    h = tuple(h)
    if not h:
        raise DomainError("h-vector must be nonempty")
    return h


def rule_I(h):
    """Convolve with (1, 1): out_k = h_k + h_{k-1}."""
    h = _check_vector(h)
    return tuple(a + b for a, b in zip(h + (0,), (0,) + h))


def rule_C(h):
    """Repeat the middle entry of a palindromic vector.

    For input of length l the first (l-1)//2 + 1 entries are kept and
    the remaining entries are shifted one slot to the right.
    """
    h = _check_vector(h)
    if h != h[::-1]:
        raise DomainError(f"rule C is undefined on the non-palindromic vector {h}")
    mid = (len(h) - 1) // 2
    return h[: mid + 1] + h[mid:]


def eval_word(word: str):
    """Apply a word over {I, C} to (1), rightmost letter first."""
    parse_word(word)
    h = (1,)
    for ch in reversed(word):
        h = rule_I(h) if ch == "I" else rule_C(h)
    return h


@dataclass(frozen=True)
class IcReport:
    """Both sides of the consistency identity I(IC - CC) = (IC - CC)I."""

    source: tuple
    lhs: tuple
    rhs: tuple

    @property
    def holds(self) -> bool:
        return self.lhs == self.rhs

    def __bool__(self) -> bool:
        return self.holds


def ic_check(h) -> IcReport:
    """Check I(IC h - CC h) == IC(I h) - CC(I h) entrywise."""
    h = _check_vector(h)
    def diff(a, b):
        return tuple(x - y for x, y in zip(a, b))
    ch = rule_C(h)
    lhs = rule_I(diff(rule_I(ch), rule_C(ch)))
    ih = rule_I(h)
    cih = rule_C(ih)
    rhs = diff(rule_I(cih), rule_C(cih))
    return IcReport(h, lhs, rhs)


# ------------------------------------------------------------------ fit


@dataclass(frozen=True)
class LinearFit:
    """Per-degree linear forms in the flag coordinates of dimension dim.

    coefficients[k] lists one Fraction per subset of {0..dim-1} in
    subset_order; applying form k to a flag vector reproduces entry k of
    the training h-vectors.
    """

    dim: int
    coefficients: tuple

    def predict(self, flag: FlagVector):
        if flag.dim != self.dim:
            raise DomainError(
                f"query has dimension {flag.dim}, fit has dimension {self.dim}"
            )
        row = flag.as_row()
        return tuple(sum(c * x for c, x in zip(coeff, row))
                     for coeff in self.coefficients)

    def to_json(self) -> dict:
        def encode(value):
            value = Fraction(value)
            if value.denominator == 1:
                return int(value)
            return f"{value.numerator}/{value.denominator}"
        return {str(k): [encode(c) for c in coeff]
                for k, coeff in enumerate(self.coefficients)}


def _training_matrices(training):
    training = list(training)
    if not training:
        raise DomainError("fit needs at least one training pair")
    dims = {flag.dim for flag, _ in training}
    if len(dims) != 1:
        raise DomainError(f"training flag vectors must share one dimension, got {sorted(dims)}")
    n = dims.pop()
    lengths = {len(tuple(h)) for _, h in training}
    if len(lengths) != 1:
        raise DomainError("training h-vectors must share one length")
    order = subset_order(n)
    flags = [flag.as_row(order) for flag, _ in training]
    hs = [list(h) for _, h in training]
    return n, flags, hs


def fit(training) -> LinearFit:
    """Solve for linear forms taking each training flag vector to its
    h-vector; raises if the training data admits no such forms."""
    n, flags, hs = _training_matrices(training)
    solutions = solve_right(flags, hs)
    if solutions is None:
        raise DomainError("no linear function fits")
    return LinearFit(n, tuple(tuple(s) for s in solutions))


def fit_and_predict(training, query: FlagVector):
    """Fit linear forms on the training pairs and apply them to query.

    The prediction is only defined when query lies in the rational span
    of the training flag vectors, query = sum c_j flag_j; then every
    choice of forms gives sum c_j h_j, by linearity.  The query lies in
    that span exactly when its row claims no new pivot after the
    training rows.
    """
    training = list(training)
    linear_fit = fit(training)
    n = linear_fit.dim
    if query.dim != n:
        raise DomainError(f"query has dimension {query.dim}, training has dimension {n}")
    span = ColumnReduction()
    for flag, _ in training:
        span.add_column(dict(enumerate(flag.as_row())))
    if span.add_column(dict(enumerate(query.as_row()))) is not None:
        raise DomainError("prediction not determined")
    return linear_fit.predict(query)


def ic_training_data(n: int):
    """Flag vector and h-vector pairs for every length-n word over {I, C}.

    The h-vector of a word is paired with the flag vector of the *dual*
    of its lattice.  Duality swaps the prism construction with the free
    sum, so the fitted linear forms evaluate a query lattice's own
    generalized h-vector: on the octahedron (dual of III) they return
    eval_word("III") = (1, 3, 3, 1), which for a simplicial polytope
    agrees with the classical h-vector of the boundary complex.  Pairing
    the word with its own lattice instead would fit the dual convention
    (octahedron -> (1, 5, 5, 1), the cube's generalized h-vector).
    """
    return [(flag_vector(dual(lattice)), eval_word(word))
            for word, lattice in ic_lattices(n)]
