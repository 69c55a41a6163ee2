"""Local-global rank table for the coned hexagon.

Prints the order-one ranks at base dimensions 0 and 1 for each apex floor
w_1, then checks that the ranks survive one barycentric subdivision.  The
rank under the trivial stratification is printed beside them for
information only: on a genuinely singular space it may differ.
"""
import argparse

from strathom.complexes import barycentric_subdivision
from strathom.corpus import by_name
from strathom.lghomology import lg_ranks


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--name", default="cone_hexagon")
    parser.add_argument("--max-i", type=int, default=1)
    args = parser.parse_args()

    k = by_name(args.name)
    print(f"{args.name}: dim {k.dim}, {len(k.vertices)} vertices")
    print(f"{'i':>3} {'w1':>3} {'rank':>5}  cells")
    for i in range(args.max_i + 1):
        for w1 in range(k.dim + 1):
            report = lg_ranks(k, i, w1)
            cells = ", ".join(f"{key}: {n}" for key, n in sorted(report.cells.items()))
            print(f"{i:>3} {w1:>3} {report.rank:>5}  {cells}")

    flat = k.with_strata(max(k.dim, 0))
    sd = barycentric_subdivision(k)
    print("subdivision stability at w=(0), trivial stratification for information:")
    for i in range(args.max_i + 1):
        base = lg_ranks(k, i, 0).rank
        refined = lg_ranks(sd, i, 0).rank
        trivial = lg_ranks(flat, i, 0).rank
        mark = "ok" if base == refined else "MISMATCH"
        print(f"  i={i}: labeled {base}, subdivided {refined}  {mark}  (trivial {trivial})")


if __name__ == "__main__":
    main()
