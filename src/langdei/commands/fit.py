"""``langdei fit``: power-law learning curves from trajectories."""

import argparse

from langdei import io, records
from langdei.errors import InputError

HELP = "fit power-law learning curves to trajectories"


def _c_range(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected numbers in LO:HI, got {text!r}") from None
    try:
        return records.check_c_range((lo, hi))
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--trajectories", required=True, help="trajectory CSV (source,target,samples,score)")
    p.add_argument("--scale", choices=io.SCALES, default="percent", help="score scale of the trajectory file")
    p.add_argument("--c-range", type=_c_range, default=records.DEFAULT_C_RANGE, help="exponent search range LO:HI (default 0:2)")
    p.add_argument("--out", required=True, help="curve registry output path")


def run(args: argparse.Namespace) -> tuple[dict[str, str], str]:
    from langdei import curves

    pairs = curves.load_trajectories(args.trajectories, scale=args.scale)
    if not pairs:
        raise InputError(f"{args.trajectories}: no trajectory points")
    fittable = {pair: points for pair, points in sorted(pairs.items()) if len(points) >= curves.MIN_POINTS}
    rejects = [(source, target, f"needs >= {curves.MIN_POINTS} points, has {len(points)}")
               for (source, target), points in sorted(pairs.items()) if len(points) < curves.MIN_POINTS]
    registry = dict(zip(fittable, curves.fit_power_laws(list(fittable.values()), c_range=args.c_range)))
    return ({args.out: io.render_curves(registry, rejects)},
            f"fit: {len(registry)} curves, {len(rejects)} rejected pairs -> {args.out}")
