"""Hypothesis strategy for small random stratified complexes, shared by tests."""
from itertools import combinations

from hypothesis import strategies as st

from strathom.complexes import Perversity, StratifiedComplex


@st.composite
def small_complexes(draw):
    """Complexes on at most five vertices, of dimension at most three, whose
    random labels are raised until they pass the filtration check, under a
    random perversity."""
    names = "abcde"[:draw(st.integers(min_value=1, max_value=5))]
    facets = draw(st.lists(st.sets(st.sampled_from(names), min_size=1, max_size=4),
                           min_size=1, max_size=4))
    facets += [{v} for v in names if not any(v in f for f in facets)]
    m = max(map(len, facets)) - 1
    labels = {v: draw(st.integers(min_value=0, max_value=m + 1)) for v in names}
    # raising labels only ever mends a simplex, so one pass suffices
    for f in {c for f in facets for r in range(2, len(f) + 1) for c in combinations(sorted(f), r)}:
        top = max(labels[v] for v in f)
        if top < m and len(f) - 1 > top:
            labels.update((v, max(labels[v], len(f) - 1)) for v in f)
    values = [0] if m >= 2 else []
    for _ in range(m - 2):
        values.append(values[-1] + draw(st.integers(min_value=0, max_value=1)))
    return StratifiedComplex(labels, facets, Perversity(tuple(values)))
