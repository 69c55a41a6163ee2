"""Shipped example complexes used by the test suite and scripts.

Each entry names a small stratified complex with a known story: the
closed ones are pseudomanifolds on which rank palindromicity is
asserted, the cones are the singular desk examples.  Builders return
fresh immutable complexes; labels follow the convention that a base
carries the labels its cone or suspension needs (a hexagon destined
for coning is labeled 2 even though it is a 1-complex).
"""
from __future__ import annotations

from collections import namedtuple

from .complexes import StratifiedComplex, cone, suspension


class CorpusEntry(namedtuple("CorpusEntry", "name closed description build")):
    __slots__ = ()

    def __call__(self) -> StratifiedComplex:
        return self.build()


def circle(n: int, label: int, stem: str = "v") -> StratifiedComplex:
    if n < 3:
        raise ValueError("a triangulated circle needs at least 3 vertices")
    strata = {f"{stem}{i}": label for i in range(n)}
    maximal = [{f"{stem}{i}", f"{stem}{(i + 1) % n}"} for i in range(n)]
    return StratifiedComplex(strata, maximal)


def sphere_boundary() -> StratifiedComplex:
    verts = ["a", "b", "c", "d"]
    strata = {v: 2 for v in verts}
    maximal = [set(verts) - {v} for v in verts]
    return StratifiedComplex(strata, maximal)


def torus7(label: int = 2) -> StratifiedComplex:
    """Minimal 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3}."""
    strata = {f"t{i}": label for i in range(7)}
    maximal = []
    for i in range(7):
        maximal.append({f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"})
        maximal.append({f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"})
    return StratifiedComplex(strata, maximal)


def two_circles() -> StratifiedComplex:
    strata = {f"{s}{i}": 1 for s in "ab" for i in range(3)}
    maximal = [{f"{s}{i}", f"{s}{(i + 1) % 3}"} for s in "ab" for i in range(3)]
    return StratifiedComplex(strata, maximal)


def wedge_circles() -> StratifiedComplex:
    """Two triangle circles sharing one vertex."""
    strata = {"w": 1, "a1": 1, "a2": 1, "b1": 1, "b2": 1}
    maximal = [{"w", "a1"}, {"a1", "a2"}, {"a2", "w"},
               {"w", "b1"}, {"b1", "b2"}, {"b2", "w"}]
    return StratifiedComplex(strata, maximal)


def cone_hexagon() -> StratifiedComplex:
    return cone(circle(6, 2))


def cone_square() -> StratifiedComplex:
    return cone(circle(4, 2))


def susp_hexagon() -> StratifiedComplex:
    return suspension(circle(6, 2))


def susp_torus7() -> StratifiedComplex:
    return suspension(torus7(3))


CORPUS = (
    CorpusEntry("single_edge", False, "one 1-simplex",
                lambda: StratifiedComplex({"u": 1, "v": 1}, [{"u", "v"}])),
    CorpusEntry("circle6", True, "hexagon circle, trivial labels",
                lambda: circle(6, 1)),
    CorpusEntry("hexagon_rim2", True, "hexagon circle labeled for coning",
                lambda: circle(6, 2)),
    CorpusEntry("sphere2", True, "boundary of the 3-simplex",
                sphere_boundary),
    CorpusEntry("torus7", True, "minimal 7-vertex torus",
                torus7),
    CorpusEntry("two_circles", True, "two disjoint triangle circles",
                two_circles),
    CorpusEntry("wedge", False, "two circles joined at a vertex",
                wedge_circles),
    CorpusEntry("cone_hexagon", False, "cone on the hexagon, apex label 0",
                cone_hexagon),
    CorpusEntry("cone_square", False, "cone on a square, apex label 0",
                cone_square),
    CorpusEntry("susp_hexagon", True, "suspension of the hexagon, apex labels 0",
                susp_hexagon),
    CorpusEntry("susp_torus7", True, "suspension of the 7-vertex torus",
                susp_torus7),
)


def by_name(name: str) -> StratifiedComplex:
    for entry in CORPUS:
        if entry.name == name:
            return entry()
    raise KeyError(name)


def small_members():
    """Entries whose complex has at most eight vertices."""
    out = []
    for entry in CORPUS:
        k = entry()
        if len(k.vertices) <= 8:
            out.append((entry, k))
    return out
