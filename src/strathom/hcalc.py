"""The h-vector calculus attached to pyramid and prism steps.

Rule I is convolution with (1, 1); rule C repeats the middle entry of a
palindromic vector.  Evaluating a word over {I, C} on the vector (1)
mirrors building the polytope from a point, and the resulting h-vector
is a linear function of the flag vector, recovered here by exact
rational fitting.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError
from .exactla import ColumnReduction, _integral, solve_right
from .facelattice import FlagVector, ic_flag_vectors, parse_word
# not called here; perfbench/tracing.py still looks these names up on this module
from .facelattice import dual, flag_vector  # noqa: F401


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

    coefficients[k] lists one Fraction per subset of {0..dim-1}, in the
    order of FlagVector.entries; applying form k to a flag vector
    reproduces entry k of the training h-vectors.
    """

    dim: int
    coefficients: tuple

    def predict(self, flag: FlagVector):
        if flag.dim != self.dim:
            raise DomainError(
                f"query has dimension {flag.dim}, fit has dimension {self.dim}"
            )
        return tuple(sum(c * x for c, x in zip(coeff, flag.entries))
                     for coeff in self.coefficients)


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
    flags = [flag.entries for flag, _ in training]
    hs = [list(h) for _, h in training]
    return n, flags, hs


def _solve(n, flags, hs) -> LinearFit:
    solutions = solve_right(flags, hs)
    if solutions is None:
        raise DomainError("no linear function fits")
    return LinearFit(n, tuple(tuple(s) for s in solutions))


def fit(training) -> LinearFit:
    """Solve for linear forms taking each training flag vector to its
    h-vector; raises if the training data admits no such forms."""
    return _solve(*_training_matrices(training))


def fit_and_predict(training, query: FlagVector):
    """Fit linear forms on the training pairs and apply them to query.

    The prediction is only defined when query lies in the rational span
    of the training flag vectors, query = sum c_j flag_j; then every
    choice of forms gives sum c_j h_j, by linearity.

    Each pair enters one integer ColumnReduction as the column
    [h | flag], with the h entries at the low rows, scaled to integers
    (which moves no pivot).  A pair whose column reduces to zero repeats
    an earlier combination exactly and is dropped; the forms are solved
    on the others only.  Those include a basis of the span, plus any
    pair whose flag vector is a combination of earlier ones but whose
    h-vector is not, and on which no linear function fits.  The query,
    fed as [0 | flag], lies in the span exactly when its pivot does not
    land in the flag block.
    """
    n, flags, hs = _training_matrices(training)
    width = len(hs[0])
    span = ColumnReduction()
    kept_flags, kept_hs = [], []
    for flag, h in zip(flags, hs):
        if span.add_column(dict(enumerate(_integral([*h, *flag])))) is not None:
            kept_flags.append(flag)
            kept_hs.append(h)
    linear_fit = _solve(n, kept_flags, kept_hs)
    if query.dim != n:
        raise DomainError(f"query has dimension {query.dim}, training has dimension {n}")
    pivot = span.add_column(dict(enumerate(_integral(query.entries), width)))
    if pivot is not None and pivot >= width:
        raise DomainError("prediction not determined")
    return linear_fit.predict(query)


def ic_training_data(n: int):
    """Flag vector and h-vector pairs for every length-n word over {I, C},
    sorted by word.

    The h-vector of a word is paired with the flag vector of the *dual*
    of its polytope.  Duality swaps the prism construction with the free
    sum, so the fitted linear forms evaluate a query lattice's own
    generalized h-vector: on the octahedron (dual of III) they return
    eval_word("III") = (1, 3, 3, 1), which for a simplicial polytope
    agrees with the classical h-vector of the boundary complex.  Pairing
    the word with its own polytope instead would fit the dual convention
    (octahedron -> (1, 5, 5, 1), the cube's generalized h-vector).
    """
    # pairs replace the vectors in place, so one set of vectors is held
    pairs = ic_flag_vectors(n)
    for i, (word, flag) in enumerate(pairs):
        pairs[i] = (flag.dual(), eval_word(word))
    return pairs
