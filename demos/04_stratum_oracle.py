"""Walkthrough: the brute-force stratum oracle.

The orbit closure decomposes into torus orbits, one per face of the
weight cone; on each stratum exactly the coordinates whose weights lie
on the face are nonzero.  SP and WSP can be re-read off these vanishing
patterns, giving a decision route independent of the theorem-backed
deciders.  Run with:  python3 demos/04_stratum_oracle.py
"""

from torsep import (
    WeightSystem,
    characteristic_pairs,
    decide_affine_sp,
    decide_affine_wsp,
    oracle_sp,
    oracle_wsp,
    ssp_coordinate_witness,
    strata,
)


def main():
    ws = WeightSystem.from_rows([[1, 1], [2, 0], [0, 2]])
    print(f"weights: {ws.weights}")

    print("\nstrata (nonzero coordinate positions, dimension):")
    for s in strata(ws):
        labels = ", ".join(f"x{i + 1}" for i in s.indices) or "none"
        print(f"  nonzero: {labels:<14} dim {s.dim}   witness {s.witness}")

    print("\ncoordinate forcing pairs (i, j): xi = 0 forces xj = 0")
    for i, j in characteristic_pairs(ws):
        if i != j:
            print(f"  x{i + 1} = 0 forces x{j + 1} = 0")

    print("\noracle vs theorem route:")
    for name, oracle, theorem in (
        ("SP", oracle_sp(ws), decide_affine_sp(ws)),
        ("WSP", oracle_wsp(ws), decide_affine_wsp(ws)),
    ):
        agree = "agree" if oracle.holds == theorem.holds else "DISAGREE"
        print(f"  {name}: oracle={oracle.holds} theorem={theorem.holds} -> {agree}")

    witness = ssp_coordinate_witness(ws)
    print(
        f"\nSSP failure witness: coordinates {witness.pair} cut the closure "
        f"along the facet {witness.stratum.indices} (normal {witness.stratum.witness}) "
        f"of dimension {witness.ambient_rank - 1} (ambient rank {witness.ambient_rank})"
    )


if __name__ == "__main__":
    main()
