"""Batch command-line driver: build networks, sweep tolerances, run the
quantization codec, and count linear regions or free-knot pieces.

Exit codes: 0 success, 2 usage error, 3 data or codec error, 4 postcondition
violation (a stated bound failed on computed output).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import analysis, quantcode
from .core import (
    NetworkFormatError,
    ReluNetwork,
    evaluate_batch,
    metrics,
    read_network,
    write_network,
)
from .constructors import (
    bspline_network,
    cardinal_bspline,
    cosine_network,
    cosine_shifted_network,
    cutoff_network,
    gaussian_network,
    haar_element_network,
    multiply_network,
    sawtooth_network,
    sine_network,
    spline_wavelet_network,
    spline_wavelet_reference,
    square_network,
    square_refinement_steps,
    weierstrass_network,
    weierstrass_reference,
)

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_POSTCONDITION = 4

DEFAULT_GRID = 100_001


def _fmt(x: float) -> str:
    return f"{x:.16e}"


class _Spec:
    """One registered constructor: how to build it, what it approximates, and
    the domain (a function of eps) on which its error is measured."""

    def __init__(self, build, reference=None, domain=None, dim=1):
        self.build = build
        self.reference = reference
        self.domain = domain
        self.dim = dim


def _gaussian_box(dim: int, eps: float) -> list[tuple[float, float]]:
    """The support box [-R-1, R+1]^dim of gaussian_network, widened by 1."""
    radius = max(1, math.ceil(math.log2(1.0 / eps)))
    return [(-radius - 2.0, radius + 2.0)] * dim


def _registry(args) -> dict[str, _Spec]:
    d = args.D
    return {
        "square": _Spec(
            lambda eps: square_network(eps),
            reference=lambda x: x * x,
            domain=lambda eps: (0.0, 1.0),
        ),
        "sawtooth": _Spec(lambda eps: sawtooth_network(args.s)),
        "multiply": _Spec(
            lambda eps: multiply_network(d, eps),
            reference=lambda x, y: x * y,
            domain=lambda eps: [(-d, d), (-d, d)],
            dim=2,
        ),
        "cosine": _Spec(
            lambda eps: cosine_network(args.a, d, eps),
            reference=lambda x: math.cos(args.a * x),
            domain=lambda eps: (-d, d),
        ),
        "cosine_shifted": _Spec(
            lambda eps: cosine_shifted_network(args.a, args.b, d, eps),
            reference=lambda x: math.cos(args.a * x - args.b),
            domain=lambda eps: (-d, d),
        ),
        "sine": _Spec(
            lambda eps: sine_network(args.a, d, eps),
            reference=lambda x: math.sin(args.a * x),
            domain=lambda eps: (-d, d),
        ),
        "bspline": _Spec(
            lambda eps: bspline_network(args.m, eps),
            reference=lambda x: cardinal_bspline(args.m, x),
            domain=lambda eps: (-2.0, args.m + 2.0),
        ),
        "wavelet": _Spec(
            lambda eps: spline_wavelet_network(args.m, eps),
            reference=lambda x: spline_wavelet_reference(args.m, x),
            domain=lambda eps: (0.0, 2.0 * args.m - 1.0),
        ),
        "weierstrass": _Spec(
            lambda eps: weierstrass_network(args.p, args.a, d, eps),
            reference=lambda x: weierstrass_reference(args.p, args.a, x),
            domain=lambda eps: (-d, d),
        ),
        "gaussian": _Spec(
            lambda eps: gaussian_network(args.m, eps),
            reference=lambda *xs: math.exp(-sum(v * v for v in xs)),
            domain=lambda eps: _gaussian_box(args.m, eps),
            dim=args.m,
        ),
        "haar": _Spec(lambda eps: haar_element_network(args.s, args.k, eps)),
        "cutoff": _Spec(lambda eps: cutoff_network(d, args.m)),
    }


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_build(args) -> int:
    registry = _registry(args)
    if args.constructor not in registry:
        print(f"unknown constructor '{args.constructor}'", file=sys.stderr)
        return EXIT_USAGE
    spec = registry[args.constructor]
    try:
        net = spec.build(args.eps)
    except ValueError as exc:
        print(f"invalid parameters for '{args.constructor}': {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.out:
        write_network(net, args.out)
    m = metrics(net)
    _emit(
        [
            "constructor,connectivity,depth,width,magnitude",
            f"{args.constructor},{m.connectivity},{m.depth},{m.width},"
            f"{_fmt(m.weight_magnitude)}",
        ],
        None,
    )
    return 0


def _sweep_grid(dim: int, grid: int) -> int:
    if dim == 1:
        return grid
    per_axis = int(round(grid ** (1.0 / dim)))
    return max(33, per_axis)


def cmd_sweep(args) -> int:
    registry = _registry(args)
    if args.constructor not in registry:
        print(f"unknown constructor '{args.constructor}'", file=sys.stderr)
        return EXIT_USAGE
    if not args.eps_list:
        print("empty tolerance list", file=sys.stderr)
        return EXIT_USAGE
    spec = registry[args.constructor]
    if spec.reference is None:
        print(
            f"constructor '{args.constructor}' has no sweep reference",
            file=sys.stderr,
        )
        return EXIT_USAGE
    lines = ["eps,sup_error,connectivity,depth,width,magnitude"]
    status = 0
    grid_n = _sweep_grid(spec.dim, args.grid)
    for eps in args.eps_list:
        try:
            net = spec.build(eps)
        except ValueError as exc:
            print(
                f"invalid parameters for '{args.constructor}': {exc}",
                file=sys.stderr,
            )
            return EXIT_USAGE
        report = analysis.error_report(net, spec.reference, spec.domain(eps), grid_n)
        m = metrics(net)
        lines.append(
            f"{_fmt(eps)},{_fmt(report.sup_error)},{m.connectivity},"
            f"{m.depth},{m.width},{_fmt(m.weight_magnitude)}"
        )
        if report.sup_error > eps + 1e-12:
            status = EXIT_POSTCONDITION
    _emit(lines, args.out)
    if status:
        print("postcondition violation: measured error above eps", file=sys.stderr)
    return status


def cmd_codec(args) -> int:
    try:
        net = read_network(args.netfile)
    except (OSError, NetworkFormatError) as exc:
        print(f"cannot read network: {exc}", file=sys.stderr)
        return EXIT_DATA
    grid_n = 101 if net.in_dim > 1 else min(args.grid, 20_001)
    try:
        _, axes = analysis._uniform_axes(
            net, [(-args.D, args.D)] * net.in_dim, grid_n
        )
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        quant, m = quantcode.quantize_network(net, args.k, args.D, args.eps)
        bits = quantcode.encode(quant, m, args.eps)
        back = quantcode.decode(bits, m, args.eps)
    except quantcode.QuantizationError as exc:
        print(f"quantization precondition failed: {exc}", file=sys.stderr)
        return EXIT_DATA
    except quantcode.CodecError as exc:
        print(f"codec error: {exc}", file=sys.stderr)
        return EXIT_DATA
    ok = back is not None and quant.dims == back.dims
    if ok:
        for la, lb in zip(quant.layers, back.layers):
            if not (
                np.array_equal(la.matrix, lb.matrix)
                and np.array_equal(la.bias, lb.bias)
            ):
                ok = False
                break
    pts = analysis._mesh_points(axes)
    deviation = float(
        np.max(
            np.abs(evaluate_batch(quant, pts) - evaluate_batch(net, pts))
        )
    )
    bound = quantcode.code_length_bound(
        metrics(quant).connectivity, m, args.eps
    )
    lines = [
        "m,bits,bound,round_trip_ok,deviation",
        f"{m},{len(bits)},{bound},{int(ok)},{_fmt(deviation)}",
    ]
    _emit(lines, args.out)
    if not ok or len(bits) > bound or deviation > args.eps + 1e-12:
        print("postcondition violation in codec run", file=sys.stderr)
        return EXIT_POSTCONDITION
    return 0


def cmd_regions(args) -> int:
    try:
        net = read_network(args.netfile)
    except (OSError, NetworkFormatError) as exc:
        print(f"cannot read network: {exc}", file=sys.stderr)
        return EXIT_DATA
    try:
        count, bound = analysis.count_linear_regions(net, (args.lo, args.hi))
    except AssertionError as exc:
        print(f"postcondition violation: {exc}", file=sys.stderr)
        return EXIT_POSTCONDITION
    _emit(["regions,bound", f"{count},{bound}"], args.out)
    return 0


_MINPIECE_FUNCTIONS = {
    "square": (
        lambda args: (lambda x: x * x),
        lambda args: (lambda x: 2.0),
    ),
    "cos_a": (
        lambda args: (lambda x: math.cos(args.a * x)),
        lambda args: (lambda x: -args.a * args.a * math.cos(args.a * x)),
    ),
    "weierstrass_partial": (
        lambda args: (lambda x: weierstrass_reference(args.p, args.a, x, 8)),
        lambda args: (
            lambda x: -sum(
                args.p ** j * (args.a ** j * math.pi) ** 2
                * math.cos(args.a ** j * math.pi * x)
                for j in range(8)
            )
        ),
    ),
}


def cmd_minpieces(args) -> int:
    if args.fname not in _MINPIECE_FUNCTIONS:
        print(f"unknown function '{args.fname}'", file=sys.stderr)
        return EXIT_USAGE
    if not args.eps_list:
        print("empty tolerance list", file=sys.stderr)
        return EXIT_USAGE
    f_make, f2_make = _MINPIECE_FUNCTIONS[args.fname]
    f = f_make(args)
    constant = analysis.asymptotic_piece_constant(
        f2_make(args), (args.lo, args.hi)
    )
    lines = ["eps,pieces,pieces_sqrt_eps,constant"]
    for eps in args.eps_list:
        try:
            count = analysis.min_pieces(f, (args.lo, args.hi), eps, args.grid)
        except analysis.ResolutionError as exc:
            print(f"grid too coarse: {exc}", file=sys.stderr)
            return EXIT_DATA
        lines.append(
            f"{_fmt(eps)},{count},{_fmt(count * math.sqrt(eps))},{_fmt(constant)}"
        )
    _emit(lines, args.out)
    return 0


def _eps_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relucalc",
        description="Constructive ReLU network toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_eps=True):
        if with_eps:
            p.add_argument("--eps", type=float, default=1e-2)
        p.add_argument("--eps-list", type=_eps_list, default=None)
        p.add_argument("--D", type=float, default=1.0)
        p.add_argument("--a", type=float, default=1.0)
        p.add_argument("--b", type=float, default=0.0)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--p", type=float, default=0.4)
        p.add_argument("--s", type=int, default=1)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--grid", type=int, default=DEFAULT_GRID)
        p.add_argument("--out", default=None)

    p_build = sub.add_parser("build", help="build a network and print metrics")
    p_build.add_argument("constructor")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_sweep = sub.add_parser("sweep", help="tolerance sweep with measured errors")
    p_sweep.add_argument("constructor")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_codec = sub.add_parser("codec", help="quantize, encode, decode, verify")
    p_codec.add_argument("netfile")
    common(p_codec)
    p_codec.set_defaults(func=cmd_codec)

    p_regions = sub.add_parser("regions", help="count linear regions")
    p_regions.add_argument("netfile")
    p_regions.add_argument("lo", type=float)
    p_regions.add_argument("hi", type=float)
    common(p_regions)
    p_regions.set_defaults(func=cmd_regions)

    p_min = sub.add_parser("minpieces", help="greedy free-knot piece counts")
    p_min.add_argument("fname")
    p_min.add_argument("lo", type=float)
    p_min.add_argument("hi", type=float)
    common(p_min)
    p_min.set_defaults(func=cmd_minpieces)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if getattr(args, "eps_list", None) is None and hasattr(args, "eps"):
        args.eps_list = [args.eps]
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
