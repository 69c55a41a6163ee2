"""Benchmark inputs, built without the package under test.

A complex is a pair (strata, facets) over abstract vertex keys; a lattice
is a pair (faces, covers) with faces mapping a key to its dimension.  The
builders follow the textbook constructions, so the inputs do not depend on
the code being measured.  `complex_doc` and `lattice_doc` render an object
as the JSON document the command line reads; names and list order come
from a seeded generator, so each seed spells the same object differently.
"""
from __future__ import annotations

from itertools import combinations, permutations, product

# --------------------------------------------------------------- complexes


def circle(n, label, stem="v"):
    strata = {f"{stem}{i}": label for i in range(n)}
    facets = [(f"{stem}{i}", f"{stem}{(i + 1) % n}") for i in range(n)]
    return strata, facets


def torus7(label=2):
    """Minimal 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3}."""
    strata = {f"t{i}": label for i in range(7)}
    facets = []
    for i in range(7):
        facets.append((f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}"))
        facets.append((f"t{i}", f"t{(i + 2) % 7}", f"t{(i + 3) % 7}"))
    return strata, facets


def sphere2():
    verts = "abcd"
    return {v: 2 for v in verts}, [tuple(u for u in verts if u != v) for v in verts]


def single_edge():
    return {"u": 1, "v": 1}, [("u", "v")]


def two_circles():
    a, fa = circle(3, 1, "a")
    b, fb = circle(3, 1, "b")
    return {**a, **b}, fa + fb


def wedge():
    strata = {v: 1 for v in ("w", "a1", "a2", "b1", "b2")}
    facets = [("w", "a1"), ("a1", "a2"), ("a2", "w"), ("w", "b1"), ("b1", "b2"), ("b2", "w")]
    return strata, facets


def cone(k, label=0):
    strata, facets = k
    return {**strata, "apex": label}, [f + ("apex",) for f in facets]


def suspension(k, labels=(0, 0)):
    strata, facets = k
    out = dict(strata)
    out["north"], out["south"] = labels
    return out, [f + ("north",) for f in facets] + [f + ("south",) for f in facets]


def subdivide(k):
    """Barycentric subdivision: one vertex per simplex, labeled by the
    largest label on it; facets are the full flags inside old facets."""
    strata, facets = k

    def name(face):
        return "|".join(sorted(face))

    new_strata = {}
    new_facets = set()
    for f in facets:
        for order in permutations(f):
            chain = tuple(name(order[:j + 1]) for j in range(len(order)))
            new_facets.add(tuple(sorted(chain)))
            for j in range(len(order)):
                new_strata[chain[j]] = max(strata[v] for v in order[:j + 1])
    return new_strata, sorted(new_facets)


# The package's example corpus, rebuilt here, plus the suspended square and
# the cone over the torus.  Labels follow the corpus: a base carries the
# labels its cone or suspension needs.
CORPUS = {
    "single_edge": single_edge,
    "circle6": lambda: circle(6, 1),
    "hexagon_rim2": lambda: circle(6, 2),
    "sphere2": sphere2,
    "torus7": torus7,
    "two_circles": two_circles,
    "wedge": wedge,
    "cone_hexagon": lambda: cone(circle(6, 2)),
    "cone_square": lambda: cone(circle(4, 2)),
    "susp_hexagon": lambda: suspension(circle(6, 2)),
    "susp_square": lambda: suspension(circle(4, 2)),
    "susp_torus7": lambda: suspension(torus7(3)),
    "cone_torus7": lambda: cone(torus7(3)),
}


def complex_dim(k):
    return max(len(f) for f in k[1]) - 1


def complex_doc(k, rng, perversity="middle"):
    """JSON document of a complex with seeded vertex names and order."""
    strata, facets = k
    keys = sorted(strata)
    numbers = list(range(len(keys)))
    rng.shuffle(numbers)
    names = {key: f"x{n}" for key, n in zip(keys, numbers)}
    vertices = [names[key] for key in keys]
    rng.shuffle(vertices)
    by_name = {names[key]: strata[key] for key in keys}
    maximal = []
    for f in facets:
        simplex = [names[v] for v in f]
        rng.shuffle(simplex)
        maximal.append(simplex)
    rng.shuffle(maximal)
    return {
        "dim": complex_dim(k),
        "vertices": vertices,
        "strata": {v: by_name[v] for v in vertices},
        "maximal_simplices": maximal,
        "perversity": perversity,
    }


# ---------------------------------------------------------------- lattices


def cyclic_facets(n, d):
    """Facets of the cyclic polytope C(n, d) by Gale's evenness condition."""
    out = []
    for s in combinations(range(n), d):
        gaps = [v for v in range(n) if v not in s]
        if all(sum(1 for x in s if i < x < j) % 2 == 0 for i, j in combinations(gaps, 2)):
            out.append(s)
    return out


def simplicial_lattice(facets):
    """Face lattice of a simplicial polytope from its facets (vertex tuples)."""
    d = len(facets[0])
    faces = {(): -1, ("top",): d}
    covers = []
    proper = set()
    for f in facets:
        for size in range(1, d + 1):
            proper.update(combinations(sorted(f), size))
    for face in proper:
        faces[face] = len(face) - 1
        if len(face) == 1:
            covers.append(((), face))
        if len(face) == d:
            covers.append((face, ("top",)))
        if len(face) > 1:
            for j in range(len(face)):
                covers.append((face[:j] + face[j + 1:], face))
    return faces, covers


def cube_lattice(n):
    """Face lattice of the n-cube: faces are words over 0, 1 and '*'."""
    faces = {"": -1}
    covers = []
    for word in product("01*", repeat=n):
        key = "".join(word)
        faces[key] = key.count("*")
        if "*" not in key:
            covers.append(("", key))
        for j, ch in enumerate(key):
            if ch == "*":
                for bit in "01":
                    covers.append((key[:j] + bit + key[j + 1:], key))
    return faces, covers


def lattice_doc(lattice, rng):
    """JSON document of a lattice with seeded face ids and order."""
    faces, covers = lattice
    keys = sorted(faces, key=lambda f: (faces[f], str(f)))
    numbers = list(range(len(keys)))
    rng.shuffle(numbers)
    ids = {key: f"f{n}" for key, n in zip(keys, numbers)}
    face_list = [{"id": ids[key], "dim": faces[key]} for key in keys]
    rng.shuffle(face_list)
    cover_list = [[ids[lo], ids[hi]] for lo, hi in covers]
    rng.shuffle(cover_list)
    return {"dim": max(faces.values()), "faces": face_list, "covers": cover_list}


def chain_counts(lattice):
    """Flag vector by direct chain counting: entry S counts the chains of
    proper faces whose dimensions are exactly S."""
    faces, covers = lattice
    n = max(faces.values())
    down = {f: set() for f in faces}
    for lo, hi in covers:
        down[hi].add(lo)
    below = {}
    for f in sorted(faces, key=faces.get):
        below[f] = set().union(*(below[g] | {g} for g in down[f])) if down[f] else set()
    by_dim = {d: [f for f in faces if faces[f] == d] for d in range(n)}
    entries = {"": 1}
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            count = {f: 1 for f in by_dim[subset[0]]}
            for d in subset[1:]:
                count = {g: sum(count.get(f, 0) for f in below[g]) for g in by_dim[d]}
            entries[",".join(map(str, subset))] = sum(count.values())
    return {"dim": n, "entries": entries}
