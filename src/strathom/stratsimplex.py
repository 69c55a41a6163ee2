"""Standard stratified simplices as symbolic dimension sequences.

A shape (i_0, ..., i_r) stands for the iterated cone-and-product
simplex(i_r) x C(simplex(i_{r-1}) x C(... x C(simplex(i_0)))), of total
dimension i_0 + ... + i_r + r.  Its boundary deletes one barycentric
coordinate from one simplex factor at a time; the coning directions
contribute no facets.  Signs come from the position of the deleted
coordinate in the global coordinate order, factor i_r first, and are
justified by dd_check rather than assumed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class StratifiedShape:
    """Dimension sequence (i_0, ..., i_r) of a stratified simplex."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        if not dims:
            raise ValidationError("a shape needs at least one factor")
        for d in dims:
            if not isinstance(d, int) or d < 0:
                raise ValidationError(f"factor dimensions must be >= 0, got {d!r}")
        object.__setattr__(self, "dims", dims)

    @property
    def order(self) -> int:
        return len(self.dims) - 1

    @property
    def total_dim(self) -> int:
        return sum(self.dims) + self.order

    def __str__(self) -> str:
        return "(" + ",".join(map(str, self.dims)) + ")"


@dataclass(frozen=True)
class FacetRef:
    """One signed boundary facet: delete coordinate l of factor j."""

    factor: int
    local: int
    sign: int
    child: StratifiedShape


def _position(dims: tuple[int, ...], j: int, l: int) -> int:
    """Global index of coordinate l of factor j, factor i_r first."""
    return l + sum(d + 1 for d in dims[j + 1:])


def facets(shape: StratifiedShape) -> list[FacetRef]:
    """Signed facets of the shape, in global coordinate order.

    Factor j contributes the facets (j, l) for l in 0..i_j when i_j > 0
    and nothing when i_j = 0: a point factor has no boundary, and the
    coning directions never do.
    """
    dims = shape.dims
    out = []
    for j in range(len(dims) - 1, -1, -1):
        if dims[j] == 0:
            continue
        child_dims = dims[:j] + (dims[j] - 1,) + dims[j + 1:]
        child = StratifiedShape(child_dims)
        for l in range(dims[j] + 1):
            sign = -1 if _position(dims, j, l) % 2 else 1
            out.append(FacetRef(j, l, sign, child))
    return out


def dd_check(shape: StratifiedShape) -> bool:
    """Whether the signed double boundary cancels termwise.

    Grandchild terms are keyed by the pair of deleted coordinates named
    in the parent's indexing; a second deletion in the same factor at or
    above the first slot is shifted back to its original index.
    """
    terms: dict[frozenset, int] = {}
    for f1 in facets(shape):
        for f2 in facets(f1.child):
            local = f2.local
            if f2.factor == f1.factor and local >= f1.local:
                local += 1
            key = frozenset({(f1.factor, f1.local), (f2.factor, local)})
            terms[key] = terms.get(key, 0) + f1.sign * f2.sign
    return all(v == 0 for v in terms.values())


def iter_shapes(max_total_dim: int):
    """Every shape with total_dim <= max_total_dim, any order."""
    if max_total_dim < 0:
        return
    for i in range(max_total_dim + 1):
        yield from _extend((i,), max_total_dim)


def _extend(dims: tuple[int, ...], budget: int):
    shape = StratifiedShape(dims)
    yield shape
    room = budget - shape.total_dim - 1
    for nxt in range(room + 1):
        yield from _extend(dims + (nxt,), budget)
