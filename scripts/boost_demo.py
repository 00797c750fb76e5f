"""Covariance of the solved field under boosts of the coordinate frame.

For each rapidity: residuals of the transformed solution against the
transformed system, the jump condition's identity on the pair factor
S1 S2, the spinor/coordinate commutation defect, and the tensor
transformation defect of the current on the four basis spinors.  Every
rapidity's residuals read the same seeded source-frame draw of
configurations on the packet's box, mapped through its boost.
"""
import argparse

import numpy as np

from mtdirac.geometry import sample_spacelike
from mtdirac.interaction import wavepacket_scenario
from mtdirac.lorentz import (
    Boost,
    commutation_defect,
    covariance_report,
    current_covariance_defect,
    jump_covariance_defect,
)
from mtdirac.scenario import Phase
from mtdirac.solver import STENCIL_STEP


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=100)
    args = ap.parse_args()

    # the bundled wavepacket config
    s = wavepacket_scenario(-3.0, -1.0, 1.0, 3.0, theta1=Phase(0.7))
    rng = np.random.default_rng(0)
    span = (-4.0, 4.0)  # the packet's support hull, padded by 1 in each direction
    configurations = sample_spacelike(
        rng, args.samples, span, span, margin=4 * STENCIL_STEP
    )
    print(
        f"{'beta':>6} {'kept':>5} {'pde_max':>10} {'jump':>10} "
        f"{'commut':>10} {'current':>10}"
    )
    for beta in (-1.0, -0.3, 0.3, 1.0):
        b = Boost(beta)
        rep = covariance_report(s, b, configurations)
        cur = current_covariance_defect(b)
        print(
            f"{beta:6.2f} {rep.samples:5d} {rep.pde_max:10.3e} "
            f"{jump_covariance_defect(b):10.3e} {commutation_defect(b):10.3e} {cur:10.3e}"
        )


if __name__ == "__main__":
    main()
