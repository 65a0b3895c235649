"""Batch command-line driver: build networks, sweep tolerances, run the
quantization codec, and count linear regions or free-knot pieces.

Exit codes: 0 success, 2 usage error, 3 data or codec error, 4 postcondition
violation (a stated bound failed on computed output).
"""

from __future__ import annotations

import argparse
import functools
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
    weierstrass_network,
    weierstrass_reference,
)
from .constructors.gabor import _gaussian_radius

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_POSTCONDITION = 4

DEFAULT_GRID = 100_001


class _Exit(Exception):
    """A failure reported as one line on stderr; main returns its code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _gaussian_box(args, eps) -> list[tuple[float, float]]:
    """The support box [-R-1, R+1]^m of gaussian_network, widened by 1."""
    radius = _gaussian_radius(eps)
    return [(-radius - 2.0, radius + 2.0)] * args.m


# name -> (build(args, eps), reference(args, *x) or None,
#          domain(args, eps) on which sweep measures the error, or None)
_CONSTRUCTORS = {
    "square": (
        lambda args, eps: square_network(eps),
        lambda args, x: x * x,
        lambda args, eps: (0.0, 1.0),
    ),
    "sawtooth": (lambda args, eps: sawtooth_network(args.s), None, None),
    "multiply": (
        lambda args, eps: multiply_network(args.D, eps),
        lambda args, x, y: x * y,
        lambda args, eps: [(-args.D, args.D)] * 2,
    ),
    "cosine": (
        lambda args, eps: cosine_network(args.a, args.D, eps),
        lambda args, x: math.cos(args.a * x),
        lambda args, eps: (-args.D, args.D),
    ),
    "cosine_shifted": (
        lambda args, eps: cosine_shifted_network(args.a, args.b, args.D, eps),
        lambda args, x: math.cos(args.a * x - args.b),
        lambda args, eps: (-args.D, args.D),
    ),
    "sine": (
        lambda args, eps: sine_network(args.a, args.D, eps),
        lambda args, x: math.sin(args.a * x),
        lambda args, eps: (-args.D, args.D),
    ),
    "bspline": (
        lambda args, eps: bspline_network(args.m, eps),
        lambda args, x: cardinal_bspline(args.m, x),
        lambda args, eps: (-2.0, args.m + 2.0),
    ),
    "wavelet": (
        lambda args, eps: spline_wavelet_network(args.m, eps),
        lambda args, x: spline_wavelet_reference(args.m, x),
        lambda args, eps: (0.0, 2.0 * args.m - 1.0),
    ),
    "weierstrass": (
        lambda args, eps: weierstrass_network(args.p, args.a, args.D, eps),
        lambda args, x: weierstrass_reference(args.p, args.a, x),
        lambda args, eps: (-args.D, args.D),
    ),
    "gaussian": (
        lambda args, eps: gaussian_network(args.m, eps),
        lambda args, *xs: math.exp(-sum(v * v for v in xs)),
        _gaussian_box,
    ),
    "haar": (lambda args, eps: haar_element_network(args.s, args.k, eps), None, None),
    "cutoff": (lambda args, eps: cutoff_network(args.D, args.m), None, None),
}


def _constructor(name: str):
    if name not in _CONSTRUCTORS:
        raise _Exit(EXIT_USAGE, f"unknown constructor '{name}'")
    return _CONSTRUCTORS[name]


def _read(path) -> ReluNetwork:
    try:
        return read_network(path)
    except (OSError, NetworkFormatError) as exc:
        raise _Exit(EXIT_DATA, f"cannot read network: {exc}") from exc


def _emit(lines, out_path) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def cmd_build(args) -> int:
    """build a network and print metrics"""
    net = _constructor(args.constructor)[0](args, args.eps)
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


def _axis_points(dim: int, points: int) -> int:
    """Points per axis of a dim-D tensor grid of about `points` points."""
    if dim == 1:
        return points
    return max(2, round(points ** (1.0 / dim)))


def cmd_sweep(args) -> int:
    """tolerance sweep with measured errors"""
    build, reference, domain = _constructor(args.constructor)
    if not args.eps_list:
        raise _Exit(EXIT_USAGE, "empty tolerance list")
    if reference is None:
        raise _Exit(
            EXIT_USAGE, f"constructor '{args.constructor}' has no sweep reference"
        )
    reference = functools.partial(reference, args)
    lines = ["eps,sup_error,connectivity,depth,width,magnitude"]
    status = 0
    for eps in args.eps_list:
        net = build(args, eps)
        report = analysis.error_report(
            net, reference, domain(args, eps), _axis_points(net.in_dim, args.grid)
        )
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
    """quantize, encode, decode, verify"""
    net = _read(args.netfile)
    grid_n = _axis_points(net.in_dim, min(args.grid, 20_001))
    _, axes = analysis._uniform_axes(net, [(-args.D, args.D)] * net.in_dim, grid_n)
    try:
        quant, m = quantcode.quantize_network(net, args.k, args.D, args.eps)
        bits = quantcode.encode(quant, m, args.eps)
        back = quantcode.decode(bits, m, args.eps)
    except quantcode.QuantizationError as exc:
        raise _Exit(EXIT_DATA, f"quantization precondition failed: {exc}") from exc
    except quantcode.CodecError as exc:
        raise _Exit(EXIT_DATA, f"codec error: {exc}") from exc
    ok = back == quant
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
    """count linear regions"""
    net = _read(args.netfile)
    try:
        count, bound = analysis.count_linear_regions(net, (args.lo, args.hi))
    except AssertionError as exc:
        raise _Exit(EXIT_POSTCONDITION, f"postcondition violation: {exc}") from exc
    _emit(["regions,bound", f"{count},{bound}"], args.out)
    return 0


# name -> (f(args, x), f''(args, x))
_MINPIECE_FUNCTIONS = {
    "square": (lambda args, x: x * x, lambda args, x: 2.0),
    "cos_a": (
        lambda args, x: math.cos(args.a * x),
        lambda args, x: -args.a * args.a * math.cos(args.a * x),
    ),
    "weierstrass_partial": (
        lambda args, x: weierstrass_reference(args.p, args.a, x, 8),
        lambda args, x: -sum(
            args.p ** j * (args.a ** j * math.pi) ** 2
            * math.cos(args.a ** j * math.pi * x)
            for j in range(8)
        ),
    ),
}


def cmd_minpieces(args) -> int:
    """greedy free-knot piece counts"""
    if args.fname not in _MINPIECE_FUNCTIONS:
        raise _Exit(EXIT_USAGE, f"unknown function '{args.fname}'")
    if not args.eps_list:
        raise _Exit(EXIT_USAGE, "empty tolerance list")
    f, f2 = (functools.partial(g, args) for g in _MINPIECE_FUNCTIONS[args.fname])
    interval = (args.lo, args.hi)
    try:
        constant = analysis.asymptotic_piece_constant(f2, interval)
    except ArithmeticError as exc:
        raise _Exit(EXIT_DATA, f"piece constant unavailable: {exc}") from exc
    lines = ["eps,pieces,pieces_sqrt_eps,constant"]
    for eps in args.eps_list:
        try:
            count = analysis.min_pieces(f, interval, eps, args.grid)
        except analysis.ResolutionError as exc:
            raise _Exit(EXIT_DATA, f"grid too coarse: {exc}") from exc
        lines.append(
            f"{_fmt(eps)},{count},{_fmt(count * math.sqrt(eps))},{_fmt(constant)}"
        )
    _emit(lines, args.out)
    return 0


def _eps_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok]


_ARGUMENTS = {
    "constructor": {},
    "netfile": {},
    "fname": {},
    "lo": {"type": float},
    "hi": {"type": float},
    "--eps": {"type": float, "default": 1e-2},
    "--eps-list": {"type": _eps_list, "default": (1e-2,)},
    "--D": {"type": float, "default": 1.0},
    "--a": {"type": float, "default": 1.0},
    "--b": {"type": float, "default": 0.0},
    "--m": {"type": int, "default": 1},
    "--p": {"type": float, "default": 0.4},
    "--s": {"type": int, "default": 1},
    "--k": {"type": int, "default": 1},
    "--grid": {"type": int, "default": DEFAULT_GRID},
    "--out": {"default": None},
}

# the parameters the constructor table reads
_PARAMETERS = ("--D", "--a", "--b", "--m", "--p", "--s", "--k")

# each subcommand takes only the arguments it reads; its help is the
# docstring of its function
_COMMANDS = {
    "build": (cmd_build, ("constructor", "--eps", *_PARAMETERS, "--out")),
    "sweep": (cmd_sweep, ("constructor", "--eps-list", *_PARAMETERS, "--grid", "--out")),
    "codec": (cmd_codec, ("netfile", "--eps", "--D", "--k", "--grid", "--out")),
    "regions": (cmd_regions, ("netfile", "lo", "hi", "--out")),
    "minpieces": (
        cmd_minpieces,
        ("fname", "lo", "hi", "--eps-list", "--a", "--p", "--grid", "--out"),
    ),
}


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relucalc",
        description="Constructive ReLU network toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, arguments) in _COMMANDS.items():
        # no prefix matching, so --eps cannot stand in for --eps-list
        p = sub.add_parser(name, help=func.__doc__, allow_abbrev=False)
        for arg in arguments:
            p.add_argument(arg, **_ARGUMENTS[arg])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Exit as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except (ValueError, OverflowError) as exc:
        # the commands catch data errors themselves; the library rejects bad
        # arguments (an empty interval, a tolerance, a grid size, a network's
        # input dimension) with ValueError, and too large ones overflow
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
