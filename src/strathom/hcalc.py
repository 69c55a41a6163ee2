"""The h-vector calculus attached to pyramid and prism steps.

Rule I is convolution with (1, 1); rule C repeats the middle entry of a
palindromic vector.  Evaluating a word over {I, C} on the vector (1)
mirrors building the polytope from a point, and the resulting h-vector
is a linear function of the flag vector, evaluated on a query from
training pairs by one integer column reduction.
"""
from __future__ import annotations

from .errors import DomainError
from .exactla import ColumnReduction, _integral
from .facelattice import FlagVector, ic_extensions, parse_word
# not called here; perfbench/tracing.py still looks these names up on this module
from .exactla import solve_right  # noqa: F401
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


def ic_check(h) -> bool:
    """Whether I(IC h - CC h) == IC(I h) - CC(I h) entrywise, that is
    rule_I(d(h)) == d(rule_I(h)) with d(g) = I(C g) - C(C g)."""
    def d(g):
        cg = rule_C(g)
        return tuple(x - y for x, y in zip(rule_I(cg), rule_C(cg)))
    h = _check_vector(h)
    return rule_I(d(h)) == d(rule_I(h))


# ------------------------------------------------------------------ fit


def fit_and_predict(training, query: FlagVector):
    """The h-vector that every linear function fitting the training pairs
    assigns to query, defined when query = sum c_j flag_j lies in the
    span of the training flag vectors: by linearity it is sum c_j h_j.

    One integer ColumnReduction decides it all, by the tag-row method of
    the exactla docstring.  Row 0 tags the query, rows 1..w hold h and
    the flag entries lie above.  Each pair is fed as [0 | h | flag]; one
    that reduces to zero is dropped, and a pivot at a row <= w is a flag
    relation the h-vectors break, so no linear function fits.  The query
    is fed as [1 | 0 | query]; every stored column is 0 on row 0, so it
    never vanishes.  A pivot above w puts query off the span.  Otherwise
    the stored column is lambda * [1 | -prediction | 0] with lambda != 0;
    a pivot on row 0 means the prediction is 0.

    The pairs are read once, in order, so they may come from a generator;
    each is checked against the first pair's dimension and h-length.
    """
    n = w = None
    span = ColumnReduction()
    for flag, h in training:
        h = tuple(h)
        if n is None:
            n, w = flag.dim, len(h)
        elif flag.dim != n:
            raise DomainError("training flag vectors must share one dimension, "
                              f"got {sorted({n, flag.dim})}")
        elif len(h) != w:
            raise DomainError("training h-vectors must share one length")
        pivot = span.add_column(dict(enumerate(_integral([0, *h, *flag.entries]))))
        if pivot is not None and pivot <= w:
            raise DomainError("no linear function fits")
    if n is None:
        raise DomainError("fit needs at least one training pair")
    if query.dim != n:
        raise DomainError(f"query has dimension {query.dim}, training has dimension {n}")
    pivot = span.add_column(dict(enumerate(_integral([1, *[0] * w, *query.entries]))))
    if pivot > w:
        raise DomainError("prediction not determined")
    col = span.pivot_column(pivot)
    from fractions import Fraction  # here, so importing the CLI does not load fractions
    return tuple(Fraction(-col.get(k, 0), col[0]) for k in range(1, w + 1))


def ic_training_data(n: int):
    """Flag vector and h-vector pairs for the words of ic_extensions(n),
    yielded one at a time.

    These 2 F(n) words are the pyramids and prisms of a basis at length
    n - 1, so their flag vectors span those of all 2^n words of length n.
    The prediction is unique on the span, so fitting these pairs predicts
    what fitting all 2^n pairs would; fit_and_predict drops the pairs that
    reduce to zero, leaving F(n+1).

    The h-vector of a word is paired with the flag vector of the *dual*
    of its polytope.  Duality swaps the prism construction with the free
    sum, so the fitted linear forms evaluate a query lattice's own
    generalized h-vector: on the octahedron (dual of III) they return
    eval_word("III") = (1, 3, 3, 1), which for a simplicial polytope
    agrees with the classical h-vector of the boundary complex.  Pairing
    the word with its own polytope instead would fit the dual convention
    (octahedron -> (1, 5, 5, 1), the cube's generalized h-vector).
    """
    for word, row in ic_extensions(n):
        yield FlagVector(n, tuple(row)).dual(), eval_word(word)
