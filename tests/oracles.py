"""Independent cross-check implementations used to pin expected values.

Everything here is deliberately naive: dense matrices of Fractions, row
reduction written out by hand, cell enumeration spelled directly from the
definitions.  Nothing imports the package's linear algebra or chain
assembly, so agreement is evidence rather than tautology.  Slow is fine;
these only ever run on desk-sized inputs.
"""

from fractions import Fraction
from itertools import combinations, product


# ----------------------------------------------------------- linear algebra


def row_reduce(rows):
    """In-place forward elimination over Fraction; returns the rank."""
    rows = [[Fraction(x) for x in r] for r in rows]
    if not rows:
        return 0, []
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][col]
        rows[rank] = [x / inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank, rows


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
