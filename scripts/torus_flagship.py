"""Rank table for the suspended 7-vertex torus under three perversity readings.

The suspension has two singular points.  The lower middle perversity keeps
both torus circles in degree 1 and kills the suspended 2-cycle; ordinary
homology (trivial filtration) does the opposite; the upper middle agrees
with ordinary here and is the rank reversal of the lower one.
"""
import argparse

from strathom.complexes import Perversity
from strathom.corpus import by_name
from strathom.ihomology import ih_ranks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show-chains", action="store_true",
                        help="also print cycle and boundary counts")
    args = parser.parse_args()

    k = by_name("susp_torus7")
    lower = ih_ranks(k)
    upper = ih_ranks(k.with_perversity(Perversity((0, 1))))
    ordinary = ih_ranks(k.with_strata(3))

    print(f"suspended 7-vertex torus, dim {k.dim}, "
          f"{len(k.vertices)} vertices, {len(k.maximal)} facets")
    print(f"{'degree':>7} {'lower mid':>10} {'upper mid':>10} {'ordinary':>9}")
    for i in range(k.dim + 1):
        print(f"{i:>7} {lower.ranks[i]:>10} {upper.ranks[i]:>10} {ordinary.ranks[i]:>9}")
    reversed_lower = tuple(reversed(lower.ranks))
    print(f"rank reversal of lower middle: {reversed_lower} "
          f"{'=' if reversed_lower == upper.ranks else '!='} upper middle")
    if args.show_chains:
        print(f"lower middle cycles {lower.cycles} boundaries {lower.boundaries}")
        print(f"ordinary     cycles {ordinary.cycles} boundaries {ordinary.boundaries}")


if __name__ == "__main__":
    main()
