"""Walkthrough: building a binomial generating system for the ideal.

Every integer relation c among the weights gives a binomial
x^(c+) - x^(c-) vanishing on the orbit closure.  The generating system
is the Graver basis of the relation lattice (its conformally minimal
relations), computed by project-and-lift (a completion procedure
repeated as coordinates are added); inside each sign pattern (octant)
it restricts to the Hilbert basis of the relation semigroup there.  Run with:
    python3 demos/02_binomial_ideals.py
"""

from torsep import (
    WeightSystem,
    binomial_generators,
    kernel_lattice,
    sp_violation_scan,
    verify_vanishing,
)


def main():
    ws = WeightSystem.from_rows(
        [[1, 0, 0], [1, 1, 0], [0, 1, 2], [0, 2, 1], [1, 0, 1]]
    )
    print(f"weights: {ws.weights}")

    lattice = kernel_lattice(ws.weights)
    print(f"relation lattice basis (rank {len(lattice)}):")
    for row in lattice:
        print(f"  {row}")

    binomials = binomial_generators(ws)
    print(f"\n{len(binomials)} generating binomials:")
    for b in binomials:
        print(f"  {b}")

    scan = sp_violation_scan(binomials)
    print(f"\nSP-violating pattern found: {scan.violating}")
    # No binomial is a pure power of one coordinate or a monomial equal
    # to 1, so the closure has the separation property.

    report = verify_vanishing(binomials, ws, trials=100, prime=10007, seed=0)
    print(
        f"vanishing spot-check: {report.trials} random torus points mod "
        f"{report.prime}, failures: {len(report.failures)}"
    )


if __name__ == "__main__":
    main()
