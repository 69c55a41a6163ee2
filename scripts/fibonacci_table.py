"""Tabulate the rational rank of IC flag vectors against Fibonacci numbers.

For each dimension n the 2^n words over {I, C} give polytopes whose flag
vectors span a subspace of dimension F_{n+1}; the table prints the exact
rank next to the Fibonacci target.  The rank is the size of a basis walked
level by level: the pyramids and prisms of a basis in dimension n - 1
span the flag vectors in dimension n, so no face lattice is built and not
every word is formed.
"""
import argparse

from strathom.facelattice import fibonacci, ic_flag_rank


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=5)
    args = parser.parse_args()

    print(f"{'n':>3} {'words':>6} {'rank':>5} {'F(n+1)':>7} {'match':>6}")
    for n in range(1, args.max_dim + 1):
        rank = ic_flag_rank(n)
        target = fibonacci(n + 1)
        print(f"{n:>3} {2 ** n:>6} {rank:>5} {target:>7} {str(rank == target):>6}")


if __name__ == "__main__":
    main()
