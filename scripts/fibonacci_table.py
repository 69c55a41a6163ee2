"""Tabulate the rational rank of IC flag vectors against Fibonacci numbers.

For each dimension n the 2^n words over {I, C} give polytopes whose flag
vectors span a subspace of dimension F_{n+1}; the table prints the exact
rank next to the Fibonacci target.
"""
import argparse
from dataclasses import dataclass

from strathom.facelattice import fibonacci, flag_rank, ic_lattices


@dataclass(frozen=True)
class Config:
    max_dim: int = 5


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-dim", type=int, default=Config.max_dim)
    cfg = Config(max_dim=parser.parse_args().max_dim)

    print(f"{'n':>3} {'words':>6} {'rank':>5} {'F(n+1)':>7} {'match':>6}")
    for n in range(1, cfg.max_dim + 1):
        lattices = [lattice for _, lattice in ic_lattices(n)]
        rank = flag_rank(lattices)
        target = fibonacci(n + 1)
        print(f"{n:>3} {len(lattices):>6} {rank:>5} {target:>7} {str(rank == target):>6}")


if __name__ == "__main__":
    main()
