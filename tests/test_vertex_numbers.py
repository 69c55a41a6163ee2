"""Vertex names only label a complex: no answer depends on how they sort."""
import pytest

from random_complexes import every_perversity
from strathom.complexes import StratifiedComplex, barycentric_subdivision
from strathom.corpus import by_name, small_members
from strathom.ihomology import ih_ranks
from strathom.lghomology import _allowed_cells, _canonical, lg_ranks


def _reversed_spelling(k):
    """k with every vertex renamed so that sorted name order, and with it
    the vertex numbering, is reversed; and the map from new names to old."""
    n = len(k.vertices)
    new = [f"x{n - 1 - v:0{len(str(n))}d}" for v in range(n)]
    strata = {new[v]: label for v, label in enumerate(k.labels)}
    r = StratifiedComplex(strata, [[new[v] for v in f] for f in k.maximal], k.perversity)
    return r, dict(zip(new, k.vertices))


def _allowed_named(k, i, j, w1, old=None):
    """The cells lg_ranks uses at (i, j) and w1, spelled in vertex names
    (mapped through old when given), columns sorted by name."""
    names = [old[v] for v in k.vertices] if old else k.vertices
    return {_canonical(j, tuple(names[v] for v in t.pick(simplex)))[1]
            for simplex, keep in _allowed_cells(k, i, j, w1) for t in keep}


@pytest.mark.parametrize("subdivided", [False, True], ids=["plain", "sd"])
@pytest.mark.parametrize("name", [e.name for e, _ in small_members()])
def test_answers_survive_reversing_the_vertex_order(name, subdivided):
    # In the corpus, labels rise along name order inside every simplex;
    # the reversed spelling makes them fall, so a verdict read off the
    # wrong vertex shows up here.
    k = by_name(name)
    if subdivided:
        k = barycentric_subdivision(k)
    r, old = _reversed_spelling(k)
    n = len(k.vertices)
    assert [r.labels[n - 1 - v] for v in range(n)] == list(k.labels)
    for perversity in every_perversity(k.dim):
        assert ih_ranks(r.with_perversity(perversity)) == ih_ranks(k.with_perversity(perversity))
    for i in (0, 1):
        for w1 in range(k.dim + 1):
            assert lg_ranks(r, i, w1) == lg_ranks(k, i, w1), (i, w1)
            for j in (0, 1):
                assert _allowed_named(r, i, j, w1, old) == _allowed_named(k, i, j, w1), (i, j, w1)
