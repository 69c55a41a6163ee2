"""Standard stratified simplices as symbolic dimension sequences.

A shape is a tuple (i_0, ..., i_r) of factor dimensions, each >= 0.  It
stands for the iterated cone-and-product
simplex(i_r) x C(simplex(i_{r-1}) x C(... x C(simplex(i_0)))), of total
dimension i_0 + ... + i_r + r; the shape (i,) is the ordinary i-simplex.
Its boundary deletes one barycentric coordinate from one simplex factor at
a time; the coning directions contribute no facets.  Signs come from the
position of the deleted coordinate in the global coordinate order, factor
i_r first, and are justified by dd_check rather than assumed.
"""
from __future__ import annotations


def facets(dims: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """Signed facets (factor, local, sign) of the shape, in global coordinate
    order: facet (j, l) deletes coordinate l of factor j, leaving the shape
    dims with dims[j] lowered by one.

    Factor j contributes the facets (j, l) for l in 0..i_j when i_j > 0
    and nothing when i_j = 0: a point factor has no boundary, and the
    coning directions never do.
    """
    out = []
    # global index of coordinate 0 of factor j, factor i_r first
    start = 0
    for j in range(len(dims) - 1, -1, -1):
        if dims[j]:
            out.extend((j, l, -1 if (start + l) % 2 else 1) for l in range(dims[j] + 1))
        start += dims[j] + 1
    return out


def dd_check(dims: tuple[int, ...]) -> bool:
    """Whether the signed double boundary cancels termwise.

    Grandchild terms are keyed by the pair of deleted coordinates named
    in the parent's indexing; a second deletion in the same factor at or
    above the first slot is shifted back to its original index.
    """
    terms: dict[frozenset, int] = {}
    for j1, l1, s1 in facets(dims):
        child = dims[:j1] + (dims[j1] - 1,) + dims[j1 + 1:]
        for j2, l2, s2 in facets(child):
            if j2 == j1 and l2 >= l1:
                l2 += 1
            key = frozenset({(j1, l1), (j2, l2)})
            terms[key] = terms.get(key, 0) + s1 * s2
    return all(v == 0 for v in terms.values())


def iter_shapes(max_total_dim: int):
    """Every shape with total dimension <= max_total_dim, any order."""
    if max_total_dim < 0:
        return
    for i in range(max_total_dim + 1):
        yield from _extend((i,), max_total_dim - i)


def _extend(dims: tuple[int, ...], room: int):
    """dims and its extensions, room being the total dimension still free."""
    yield dims
    for nxt in range(room):
        yield from _extend(dims + (nxt,), room - nxt - 1)
