"""Independent cross-check implementations used to pin expected values.

Everything here is deliberately naive: dense matrices, row reduction
written out by hand, cell enumeration spelled directly from the
definitions.  Nothing imports the package's linear algebra or chain
assembly, so agreement is evidence rather than tautology.  Slow is fine;
these only ever run on desk-sized inputs.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm


# ----------------------------------------------------------- linear algebra


def _integer_row(row):
    """A positive multiple of a row of integers and Fractions, in integers."""
    m = lcm(1, *(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def _primitive(row):
    g = gcd(*row)
    return row if g < 2 else [x // g for x in row]


def row_reduce(rows):
    """Gauss-Jordan elimination; returns the rank and the reduced rows.

    Rows are scaled to integers and kept primitive, and a row is cleared by
    an integer combination with the pivot row.  Scaling a row changes no
    row space, so the reduced row echelon form, returned as Fractions with
    pivots 1 and zero rows last, is the one exact rational elimination gives.
    """
    rows = [_integer_row(r) for r in rows]
    if not rows:
        return 0, []
    ncols = len(rows[0])
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        p = prow[col]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                g = gcd(p, rows[r][col])
                a, b = p // g, rows[r][col] // g
                rows[r] = _primitive([a * x - b * y for x, y in zip(rows[r], prow)])
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    reduced = [[Fraction(x, row[col]) for x in row] for row, col in zip(rows, pivots)]
    reduced += [[Fraction(0)] * ncols for _ in rows[len(pivots):]]
    return len(pivots), reduced


def dense_rank(rows):
    return row_reduce(rows)[0]


def nullspace(rows, ncols):
    """Basis of the right nullspace as lists of Fractions."""
    if ncols == 0:
        return []
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    rank, red = row_reduce(rows)
    red = red[:rank]
    pivots = []
    for r in red:
        pivots.append(next(c for c in range(ncols) if r[c] != 0))
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, pc in zip(red, pivots):
            vec[pc] = -r[f]
        basis.append(vec)
    return basis


def column_pivots(columns):
    """Lowest-row column reduction over the integers.

    Columns are {row: integer} dicts fed in order; each is replaced by an
    integer combination with the earlier reduced column whose pivot is its
    largest nonzero row, divided by its content, until that row is no
    earlier column's pivot.  Scaling moves no nonzero entry, so the pivots
    are those of the same reduction over the rationals.  Returns that row
    for every column, or None where the column reduces to zero.
    """
    reduced = {}
    out = []
    for col in columns:
        col = {r: v for r, v in col.items() if v}
        while col and max(col) in reduced:
            low = max(col)
            piv = reduced[low]
            g = gcd(col[low], piv[low])
            a, b = piv[low] // g, col[low] // g
            col = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                col[r] = col.get(r, 0) - b * v
            col = {r: v for r, v in col.items() if v}
            g = gcd(*col.values()) if col else 1
            if g > 1:
                col = {r: v // g for r, v in col.items()}
        if col:
            reduced[max(col)] = col
        out.append(max(col) if col else None)
    return out


# ---------------------------------------------------- polytopes and words

OCTA_FACETS = [
    ("a", "b", "c"), ("a", "b", "f"), ("a", "c", "e"), ("a", "e", "f"),
    ("b", "c", "d"), ("b", "d", "f"), ("c", "d", "e"), ("d", "e", "f"),
]
PENTAGON_FACETS = [("p1", "p2"), ("p2", "p3"), ("p3", "p4"), ("p4", "p5"), ("p5", "p1")]


def cyclic_facets(n, d):
    """Facets of the cyclic polytope C(n, d) by Gale's evenness condition."""
    out = []
    for facet in combinations(range(n), d):
        gaps = [v for v in range(n) if v not in facet]
        if all(sum(1 for x in facet if i < x < j) % 2 == 0 for i, j in combinations(gaps, 2)):
            out.append(tuple(f"v{x}" for x in facet))
    return out


def ic_words(n):
    """All 2^n words of length n over {I, C}, sorted."""
    return ["".join(letters) for letters in product("CI", repeat=n)]


# ------------------------------------------------------------- h-vectors


def simplicial_h_vector(facets):
    """h-vector of a simplicial complex from its facet list.

    Uses the alternating binomial transform of the face numbers, with n the
    facet cardinality; for the boundary sphere of a simplicial n-polytope
    this is the classical h-vector.
    """
    faces = set()
    for f in facets:
        f = tuple(sorted(f))
        for size in range(1, len(f) + 1):
            faces.update(combinations(f, size))
    n = max(len(f) for f in faces)
    fvec = [1] + [sum(1 for f in faces if len(f) == i + 1) for i in range(n)]

    def choose(a, b):
        if b < 0 or b > a:
            return 0
        out = 1
        for j in range(b):
            out = out * (a - j) // (j + 1)
        return out

    return tuple(
        sum((-1) ** (k - i) * choose(n - i, k - i) * fvec[i] for i in range(k + 1))
        for k in range(n + 1)
    )


def simplicial_lattice(facets):
    """Face-lattice document of the boundary of a simplicial polytope.

    facets lists the vertex names of each facet, all facets of one size n;
    the proper faces are the nonempty subsets of facets.  A proper face's
    id is its sorted vertex names joined by commas, "(empty)" and "(top)"
    name the empty face and the polytope, of dimensions -1 and n.  Faces
    are listed by dimension and then id, covers as sorted [lower, upper]
    pairs.
    """
    facets = {tuple(sorted(f)) for f in facets}
    n = len(next(iter(facets)))
    assert all(len(f) == n for f in facets), "facets must share one size"
    proper = {face for f in facets for size in range(1, n + 1)
              for face in combinations(f, size)}
    fid = ",".join
    dims = {fid(face): len(face) - 1 for face in proper}
    dims.update({"(empty)": -1, "(top)": n})
    covers = {("(empty)", fid(face)) for face in proper if len(face) == 1}
    covers |= {(fid(face), "(top)") for face in facets}
    covers |= {(fid(face[:k] + face[k + 1:]), fid(face))
               for face in proper if len(face) > 1 for k in range(len(face))}
    faces = sorted(dims.items(), key=lambda item: (item[1], item[0]))
    return {"dim": n, "faces": [{"id": i, "dim": d} for i, d in faces],
            "covers": [list(pair) for pair in sorted(covers)]}


def toric_h(dims, covers):
    """Stanley's toric h-vector (h_0, ..., h_d) of a d-polytope given by
    its face lattice alone.

    dims maps each face id to its dimension, -1 for the empty face and d
    for the polytope; covers lists (lower, upper) id pairs.  Faces are
    taken in increasing dimension (Stanley, "Generalized h-vectors,
    intersection cohomology of toric varieties, and related results",
    1987):
        h(G, x) = sum over faces F < G of g(F, x) (x - 1)^(dim G - 1 - dim F),
        g(G, x) = h_0 + sum_{1 <= i <= dim G / 2} (h_i - h_{i-1}) x^i,
    with h = g = 1 for the empty face.  Polynomials are coefficient lists,
    constant term first.
    """
    below = {face: set() for face in dims}
    for lo, hi in covers:
        below[hi].add(lo)
    order = sorted(dims, key=dims.get)
    g = {}
    for face in order:
        d = dims[face]
        for lo in list(below[face]):  # the direct covers; theirs are closed already
            below[face] |= below[lo]
        h = [0] * (d + 1) if below[face] else [1]
        for lo in below[face]:
            k = d - 1 - dims[lo]
            power = [comb(k, j) * (-1) ** (k - j) for j in range(k + 1)]  # (x - 1)^k
            for i, a in enumerate(g[lo]):
                for j, b in enumerate(power):
                    h[i + j] += a * b
        g[face] = [h[0]] + [h[i] - h[i - 1] for i in range(1, d // 2 + 1)]
    return tuple(h)


# ------------------------------------------------------- simplicial chains


def _closure(maximal):
    faces = set()
    for f in maximal:
        f = tuple(sorted(f))
        for size in range(1, len(f) + 1):
            faces.update(combinations(f, size))
    return faces


def _boundary_entries(simplex):
    for l in range(len(simplex)):
        yield (1 if l % 2 == 0 else -1), simplex[:l] + simplex[l + 1 :]


def naive_ordinary_betti(maximal):
    """Betti numbers of a simplicial complex by dense rank over Fraction."""
    faces = _closure(maximal)
    if not faces:
        return ()
    dim = max(len(f) for f in faces) - 1
    by_dim = {i: sorted(f for f in faces if len(f) == i + 1) for i in range(dim + 1)}

    def boundary_rank(i):
        cols = by_dim.get(i, [])
        rows_ix = {f: r for r, f in enumerate(by_dim.get(i - 1, []))}
        if i == 0 or not cols or not rows_ix:
            return 0
        mat = [[Fraction(0)] * len(cols) for _ in rows_ix]
        for c, f in enumerate(cols):
            for sign, face in _boundary_entries(f):
                mat[rows_ix[face]][c] = Fraction(sign)
        return dense_rank(mat)

    betti = []
    for i in range(dim + 1):
        kernel = len(by_dim[i]) - boundary_rank(i)
        betti.append(kernel - boundary_rank(i + 1))
    return tuple(betti)


def naive_ih_betti(strata, maximal, perversity):
    """Intersection homology ranks; see naive_ih_report."""
    return naive_ih_report(strata, maximal, perversity)[0]


def naive_ih_report(strata, maximal, perversity):
    """(ranks, cycles, boundaries) of intersection homology per degree,
    from explicit chain bases.

    Works over the allowable simplices, builds the subspace of chains with
    allowable boundary as an explicit nullspace basis, and takes ranks of
    images by dense elimination.  cycles counts the kernel of the boundary
    on allowable chains, boundaries the image of the admissible chains one
    degree up.  perversity is a callable c -> p(c).
    """
    faces = _closure(maximal)
    if not faces:
        return (), (), ()
    m = max(len(f) for f in faces) - 1
    by_dim = {i: sorted(f for f in faces if len(f) == i + 1) for i in range(m + 1)}

    def allowable(f):
        i = len(f) - 1
        for c in range(2, m + 1):
            deep = sum(1 for v in f if strata[v] <= m - c)
            if deep and deep - 1 > i - c + perversity(c):
                return False
        return True

    allowed = {i: [f for f in by_dim[i] if allowable(f)] for i in range(m + 1)}

    def boundary_of_vector(vec, i):
        out = {}
        for coef, f in zip(vec, allowed[i]):
            if coef == 0:
                continue
            for sign, face in _boundary_entries(f):
                out[face] = out.get(face, Fraction(0)) + coef * sign
        return {f: c for f, c in out.items() if c != 0}

    def chains_with_allowable_boundary(i):
        """Explicit basis of IC_i as vectors over allowed[i]."""
        cols = allowed[i]
        if i == 0:
            return [
                [Fraction(int(a == b)) for b in range(len(cols))]
                for a in range(len(cols))
            ]
        bad = [f for f in by_dim[i - 1] if not allowable(f)]
        bad_ix = {f: r for r, f in enumerate(bad)}
        mat = [[Fraction(0)] * len(cols) for _ in bad]
        for c, f in enumerate(cols):
            for sign, face in _boundary_entries(f):
                if face in bad_ix:
                    mat[bad_ix[face]][c] = Fraction(sign)
        return nullspace(mat, len(cols))

    betti, cycles, boundaries = [], [], []
    for i in range(m + 1):
        cols = allowed[i]
        rows_ix = {f: r for r, f in enumerate(by_dim.get(i - 1, []))}
        if i == 0 or not rows_ix:
            kernel_dim = len(cols)
        else:
            mat = [[Fraction(0)] * len(cols) for _ in rows_ix]
            for c, f in enumerate(cols):
                for sign, face in _boundary_entries(f):
                    mat[rows_ix[face]][c] = Fraction(sign)
            kernel_dim = len(cols) - dense_rank(mat)
        images = []
        if i + 1 <= m:
            col_ix = {f: r for r, f in enumerate(cols)}
            for vec in chains_with_allowable_boundary(i + 1):
                img = boundary_of_vector(vec, i + 1)
                assert all(f in col_ix for f in img), "boundary left the allowable span"
                row = [Fraction(0)] * len(cols)
                for f, coef in img.items():
                    row[col_ix[f]] = coef
                images.append(row)
        image_dim = dense_rank(images)
        betti.append(kernel_dim - image_dim)
        cycles.append(kernel_dim)
        boundaries.append(image_dim)
    return tuple(betti), tuple(cycles), tuple(boundaries)


# ------------------------------------------------------- local-global cells


def _parity(seq):
    seen = 0
    seq = list(seq)
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                seen += 1
    return -1 if seen % 2 else 1


def _cone_canon(apex, base):
    if len(set(base)) < len(base):
        return 0, None
    order = sorted(range(len(base)), key=base.__getitem__)
    return _parity(order), ("cone", apex, tuple(base[q] for q in order))


def _prism_canon(a0, b0, a1, b1):
    if a0 == a1 and b0 == b1:
        return 0, None
    cols = list(zip(b0, b1))
    if len(set(cols)) < len(cols):
        return 0, None
    order = sorted(range(len(cols)), key=cols.__getitem__)
    return _parity(order), (
        "prism",
        a0,
        tuple(b0[q] for q in order),
        a1,
        tuple(b1[q] for q in order),
    )


def _lg_cone_cells(simplices, i):
    cells = set()
    for s in simplices:
        sset = set(s)
        for base in product(s, repeat=i + 1):
            if len(set(base)) < len(base) or tuple(sorted(base)) != base:
                continue
            for apex in s:
                if set(base) | {apex} == sset:
                    cells.add(("cone", apex, base))
    return sorted(cells)


def _lg_prism_cells(simplices, i):
    cells = set()
    for s in simplices:
        sset = set(s)
        for b0 in product(s, repeat=i + 1):
            for b1 in product(s, repeat=i + 1):
                cols = tuple(zip(b0, b1))
                if len(set(cols)) < len(cols) or tuple(sorted(cols)) != cols:
                    continue
                for a0 in s:
                    for a1 in s:
                        if a0 == a1 and b0 == b1:
                            continue
                        if set(b0) | set(b1) | {a0, a1} == sset:
                            cells.add(("prism", a0, b0, a1, b1))
    return sorted(cells)


def _lg_boundary(cell):
    """Signed canonical facets of a canonical cell."""
    out = {}

    def push(sign, canon):
        sgn, rep = canon
        if sgn:
            out[rep] = out.get(rep, 0) + sign * sgn

    if cell[0] == "cone":
        _, apex, base = cell
        if len(base) > 1:
            for l in range(len(base)):
                push((-1) ** l, _cone_canon(apex, base[:l] + base[l + 1 :]))
    else:
        _, a0, b0, a1, b1 = cell
        push(1, _cone_canon(a1, b1))
        push(-1, _cone_canon(a0, b0))
        if len(b0) > 1:
            for p in range(len(b0)):
                push(
                    (-1) ** (p + 1),
                    _prism_canon(a0, b0[:p] + b0[p + 1 :], a1, b1[:p] + b1[p + 1 :]),
                )
    return {rep: coef for rep, coef in out.items() if coef}


def _lg_allowed(cell, strata, m, perversity, w1):
    if cell[0] == "cone":
        _, apex, base = cell
        if strata[apex] < w1:
            return False
        i = len(base) - 1
        for c in range(2, m + 1):
            deep = sum(1 for v in base if strata[v] <= m - c)
            if deep and deep - 1 > i - c + perversity(c):
                return False
        return True
    _, a0, b0, a1, b1 = cell
    if max(strata[a0], strata[a1]) < w1:
        return False
    i = len(b0) - 1
    for c in range(2, m + 1):
        d = m - c
        limit = i + 1 - c + perversity(c)
        side0 = {q for q, v in enumerate(b0) if strata[v] <= d}
        side1 = {q for q, v in enumerate(b1) if strata[v] <= d}
        if side0 and len(side0) - 1 > limit:
            return False
        if side1 and len(side1) - 1 > limit:
            return False
        both = side0 & side1
        if both and len(both) > limit:
            return False
    return True


def naive_lg_rank(strata, maximal, perversity, i, w1):
    """Brute-force rank of the order-one local-global group at (i,0), w=(w1).

    Assembles the full system densely: cycles among allowed cone cells, and
    boundaries of allowed higher cells constrained through an explicit
    nullspace so that stray components vanish.
    """
    faces = _closure(maximal)
    if not faces:
        return 0
    m = max(len(f) for f in faces) - 1
    simplices = sorted(faces)

    def allowed(cells):
        return [c for c in cells if _lg_allowed(c, strata, m, perversity, w1)]

    cones_i = _lg_cone_cells(simplices, i)
    allowed_i = allowed(cones_i)

    rows_ix = {}
    zmat_cols = []
    for cell in allowed_i:
        col = _lg_boundary(cell)
        for rep in col:
            rows_ix.setdefault(rep, len(rows_ix))
        zmat_cols.append(col)
    zmat = [[Fraction(0)] * len(allowed_i) for _ in rows_ix]
    for c, col in enumerate(zmat_cols):
        for rep, coef in col.items():
            zmat[rows_ix[rep]][c] = Fraction(coef)
    dim_z = len(allowed_i) - dense_rank(zmat)

    generators = allowed(_lg_cone_cells(simplices, i + 1)) + allowed(
        _lg_prism_cells(simplices, i)
    )
    allowed_ix = {cell: r for r, cell in enumerate(allowed_i)}
    stray_ix = {}
    cols = []
    for cell in generators:
        col = _lg_boundary(cell)
        for rep in col:
            if rep not in allowed_ix and rep not in stray_ix:
                stray_ix[rep] = len(stray_ix)
        cols.append(col)

    stray = [[Fraction(0)] * len(generators) for _ in stray_ix]
    for c, col in enumerate(cols):
        for rep, coef in col.items():
            if rep in stray_ix:
                stray[stray_ix[rep]][c] = Fraction(coef)
    combos = nullspace(stray, len(generators))

    images = []
    for combo in combos:
        row = [Fraction(0)] * len(allowed_i)
        for coeff, col in zip(combo, cols):
            if coeff == 0:
                continue
            for rep, coef in col.items():
                if rep in allowed_ix:
                    row[allowed_ix[rep]] += coeff * coef
        images.append(row)
    dim_b = dense_rank(images)
    return dim_z - dim_b


def sparse_lg_rank(strata, maximal, perversity, i, w1):
    """The rank `naive_lg_rank` computes, by sparse integer elimination.

    dim Z is the number of allowed (i,0) cells less the rank of their
    boundaries.  B is the image under A of the kernel of S, where S and A
    are the rows of the (i+1,0) and (i,1) boundaries on the stray cells
    and on the allowed (i,0) cells, so dim B = rank [S; A] - rank S.
    """
    faces = _closure(maximal)
    if not faces:
        return 0
    m = max(len(f) for f in faces) - 1
    simplices = sorted(faces)

    def allowed(cells):
        return [c for c in cells if _lg_allowed(c, strata, m, perversity, w1)]

    def rank(columns):
        return sum(low is not None for low in column_pivots(columns))

    allowed_ix = {cell: r for r, cell in enumerate(allowed(_lg_cone_cells(simplices, i)))}
    facets = {}
    dim_z = len(allowed_ix) - rank(
        {facets.setdefault(rep, len(facets)): coef for rep, coef in _lg_boundary(cell).items()}
        for cell in allowed_ix)

    # stray rows are numbered after the allowed ones, which keeps the
    # columns short while the rows of S are cleared first
    n = len(allowed_ix)
    rows = dict(allowed_ix)
    cols = [{rows.setdefault(rep, len(rows)): coef for rep, coef in _lg_boundary(cell).items()}
            for cell in allowed(_lg_cone_cells(simplices, i + 1)) + allowed(_lg_prism_cells(simplices, i))]
    dim_b = rank(cols) - rank({r: coef for r, coef in col.items() if r >= n} for col in cols)
    return dim_z - dim_b
