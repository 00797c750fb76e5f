"""Time series of component masses and Schmidt data for the crossing packet.

The right-moving particle-1 packet meets the left-moving particle-2 packet
at the coincidence set; the boundary phase swaps psi2 into psi3 while the
total mass stays put.  Prints one row per sampled time.
"""
import argparse

import numpy as np

from mtdirac.conservation import QuadratureSpec, component_masses
from mtdirac.interaction import (
    default_slice_grid,
    schmidt_spectrum,
    single_time_slice,
    wavepacket_scenario,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--panels", type=int, default=48)
    ap.add_argument("--steps", type=int, default=17)
    args = ap.parse_args()

    s = wavepacket_scenario(-3.0, -1.0, 1.0, 3.0)
    times = np.linspace(0.0, 4.0, args.steps)
    q = QuadratureSpec(panels=args.panels)
    z = default_slice_grid(s, times)

    print(f"{'t':>6} {'mass2':>10} {'mass3':>10} {'total':>10} {'sigma2':>10}")
    for t in times:
        row = component_masses(s, float(t), q)
        sigma2 = schmidt_spectrum(single_time_slice(s, float(t), z))[1]
        print(
            f"{t:6.2f} {row[1]:10.6f} {row[2]:10.6f} {row.sum():10.6f} {sigma2:10.3e}"
        )
    print("\nswap epochs: psi3 dead until t = 1, psi2 dead after t = 3")


if __name__ == "__main__":
    main()
