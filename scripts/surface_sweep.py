"""Normalization integral across a family of space-like hypersurfaces.

A conserving scenario gives the same value on every surface; a scenario
with an absorbing boundary override leaks mass and the sweep exposes it.
"""
import argparse

from mtdirac.conservation import QuadratureSpec, acceptance_family, normalization_report
from mtdirac.scenario import Phase, absorbing_override
from mtdirac.interaction import wavepacket_scenario


def leaky_packet():
    base = wavepacket_scenario(-1.2, -0.2, 0.2, 1.2, theta1=Phase(0.7))
    return absorbing_override(base, "h1_plus")


def sweep(label, s, q):
    print(f"\n{label} (panels={q.panels})")
    vals = [normalization_report(s, f, q).value for f in acceptance_family()]
    for f, v in zip(acceptance_family(), vals):
        print(f"  {f.label:<18} {v:.12f}")
    print(f"  spread {max(vals) - min(vals):.3e}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--panels", type=int, default=64)
    args = ap.parse_args()

    q = QuadratureSpec(panels=args.panels)
    packet = wavepacket_scenario(-3.0, -1.0, 1.0, 3.0)
    sweep("conserving packet", packet, q)
    sweep("conserving packet", packet, q.doubled())
    sweep("absorbing override (negative control)", leaky_packet(), q)


if __name__ == "__main__":
    main()
