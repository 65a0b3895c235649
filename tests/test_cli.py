import math
import tracemalloc

import pytest

from relucalc import analysis
from relucalc.calculus import is_nondegenerate
from relucalc.cli import main
from relucalc.core import network, read_network, write_network


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_square_metrics(capsys, tmp_path):
    out = tmp_path / "sq.relunet"
    code, stdout, _ = run_cli(
        capsys, "build", "square", "--eps", "1e-3", "--out", str(out)
    )
    assert code == 0
    header, row = stdout.strip().splitlines()
    assert header.startswith("constructor,")
    fields = row.split(",")
    assert fields[0] == "square"
    assert int(fields[3]) == 3  # width
    assert out.exists()


def test_build_sawtooth_depth(capsys):
    code, stdout, _ = run_cli(capsys, "build", "sawtooth", "--s", "4")
    assert code == 0
    row = stdout.strip().splitlines()[1]
    assert int(row.split(",")[2]) == 5  # depth s+1


def test_build_cosine_at_high_accuracy(capsys):
    # degree 18 by the cosine's coefficient bound; the class-wide rule would
    # ask for 44, past the conditioning cap
    code, stdout, _ = run_cli(capsys, "build", "cosine", "--eps", "1e-12")
    assert code == 0
    assert stdout.splitlines()[1].startswith("cosine,")


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "cosine", "--eps", "1e-320"],
        ["build", "gaussian", "--m", "1", "--eps", "1e-320"],
        ["build", "gaussian", "--m", "1", "--eps", "1e-12"],
        ["build", "weierstrass", "--p", "0.4", "--a", "3", "--D", "1",
         "--eps", "1e-300"],
        ["build", "weierstrass", "--eps", "5e-324"],
    ],
)
def test_build_at_unreachable_eps_exits_2_naming_eps(capsys, argv):
    # past the float range or the cosine core's reach, or (the Gaussian at
    # 1e-12) below the rounding floor of its squaring stage; the cosine core
    # runs at 6/pi^3 eps and the series' terms at shares of eps, but the
    # refusal names the eps given
    code, stdout, stderr = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert f"eps = {argv[-1]}" in stderr


@pytest.mark.parametrize("m", ["60", "200"])
def test_build_bspline_at_too_high_order_exits_2_naming_m(capsys, m):
    # the de Boor pyramid would hold more than MAX_DENSE_ENTRIES dense
    # weights; the refusal names the order and eps given, not the multiplier's
    code, stdout, stderr = run_cli(capsys, "build", "bspline", "--m", m, "--eps", "1e-2")
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert f"order m = {m} is too large for eps = 0.01" in stderr


def test_build_cutoff_at_too_high_dimension_exits_2_before_allocating(capsys):
    # 1.6e9 dense weights (12.8 GB) are refused from the gate's dims alone
    tracemalloc.start()
    try:
        code, stdout, stderr = run_cli(capsys, "build", "cutoff", "--m", "20000")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "dimension 20000 is too large" in stderr
    assert peak < 2 ** 20


def test_sweep_bspline_order_ten_meets_eps(capsys):
    # the de Boor pyramid keeps the breakpoint count under MAX_PWL_VALUES
    # and its error under eps, where the truncated-power sum missed by 0.21
    code, stdout, stderr = run_cli(
        capsys, "sweep", "bspline", "--m", "10", "--eps-list", "1e-2", "--grid", "2001"
    )
    assert (code, stderr) == (0, "")
    header, row = stdout.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["sup_error"]) <= 1e-2


def test_build_unknown_constructor(capsys):
    code, _, stderr = run_cli(capsys, "build", "nosuch")
    assert code == 2
    assert "unknown constructor" in stderr


def test_sweep_square(capsys, tmp_path):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        capsys,
        "sweep",
        "square",
        "--eps-list",
        "0.25,0.0625,0.001",
        "--grid",
        "10001",
        "--out",
        str(out),
    )
    assert code == 0
    lines = stdout.strip().splitlines()
    assert lines[0].startswith("eps,")
    assert len(lines) == 4
    for line in lines[1:]:
        eps, err = (float(v) for v in line.split(",")[:2])
        assert err <= eps + 1e-12
    # depth column affine in log2(1/eps) with slope 1/2 up to rounding
    depths = [int(line.split(",")[3]) for line in lines[1:]]
    for line, depth in zip(lines[1:], depths):
        eps = float(line.split(",")[0])
        assert depth == max(1, math.ceil(math.log2(1 / eps) / 2) - 1) + 1


def test_sweep_deterministic(capsys, tmp_path):
    args = ["sweep", "square", "--eps-list", "0.01,0.001", "--grid", "5001"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sweep_empty_list(capsys):
    code, _, stderr = run_cli(capsys, "sweep", "square", "--eps-list", "")
    assert code == 2


def test_sweep_gaussian_meets_tolerance(capsys):
    code, stdout, _ = run_cli(
        capsys, "sweep", "gaussian", "--m", "1", "--eps-list", "0.1",
        "--grid", "2001",
    )
    assert code == 0
    eps, err = (float(v) for v in stdout.strip().splitlines()[1].split(",")[:2])
    assert err <= eps


def test_sweep_splits_the_grid_across_six_axes(capsys):
    # 245 points over 6 axes is 3 per axis; a fixed per-axis floor of 33
    # would ask for 33**6 points (about 10 GB)
    code, stdout, _ = run_cli(
        capsys, "sweep", "gaussian", "--m", "6", "--eps-list", "0.1",
        "--grid", "245",
    )
    assert code == 0
    eps, err = (float(v) for v in stdout.strip().splitlines()[1].split(",")[:2])
    assert err <= eps


@pytest.mark.parametrize("grid", ["11", "244"])
def test_sweep_grid_of_box_corners_is_usage_error(capsys, grid):
    # fewer than 3 points per axis hit only the 64 corners of the box, where
    # network and Gaussian are both about 0; 245 is the least count that
    # gives 3 per axis
    code, stdout, stderr = run_cli(
        capsys, "sweep", "gaussian", "--m", "6", "--eps-list", "0.1",
        "--grid", grid,
    )
    assert code == 2
    assert stdout == ""
    assert stderr.splitlines() == [
        f"invalid parameters: --grid {grid} gives fewer than 3 points per axis "
        "on 6 inputs; use --grid 245 or more"
    ]


def test_sweep_without_reference_is_usage_error(capsys):
    code, _, stderr = run_cli(capsys, "sweep", "sawtooth")
    assert code == 2
    assert "has no sweep reference" in stderr


def test_codec_round_trip(capsys, tmp_path):
    net_path = tmp_path / "net.relunet"
    run_cli(capsys, "build", "square", "--eps", "1e-2", "--out", str(net_path))
    code, stdout, _ = run_cli(
        capsys,
        "codec",
        str(net_path),
        "--k",
        "4",
        "--D",
        "1.0",
        "--eps",
        "0.25",
        "--grid",
        "2001",
    )
    assert code == 0
    header, row = stdout.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["round_trip_ok"] == "1"
    assert int(fields["bits"]) <= int(fields["bound"])
    assert float(fields["deviation"]) <= 0.25


def test_codec_corrupted_file(capsys, tmp_path):
    bad = tmp_path / "bad.relunet"
    bad.write_text("relunet v1\n2\n1 3 1\n0x1p+0\n")
    code, _, stderr = run_cli(capsys, "codec", str(bad), "--eps", "0.25")
    assert code == 3


def test_codec_empty_domain_is_usage_error(capsys, tmp_path):
    net_path = tmp_path / "net.relunet"
    run_cli(capsys, "build", "square", "--eps", "1e-2", "--out", str(net_path))
    code, _, stderr = run_cli(
        capsys, "codec", str(net_path), "--D", "0", "--eps", "0.25"
    )
    assert code == 2
    assert "empty domain" in stderr


def test_codec_deep_sawtooth_uses_uniform_grid(capsys, tmp_path, monkeypatch):
    # a depth-31 sawtooth has about 2^30 breakpoints on [-1, 1]; codec must
    # measure the deviation on the uniform grid and never enumerate them
    net_path = tmp_path / "saw.relunet"
    run_cli(capsys, "build", "sawtooth", "--s", "30", "--out", str(net_path))

    def no_exact_pwl(*args, **kwargs):
        raise AssertionError("codec enumerated the breakpoints")

    monkeypatch.setattr(analysis, "exact_pwl", no_exact_pwl)
    code, stdout, _ = run_cli(
        capsys, "codec", str(net_path), "--k", "5", "--eps", "0.25", "--grid", "2001"
    )
    assert code == 0
    header, row = stdout.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["round_trip_ok"] == "1"
    assert float(fields["deviation"]) <= 0.25


def test_codec_keeps_three_points_per_axis_past_its_cap(capsys, tmp_path):
    # 20001 points would leave 2 per axis on 11 inputs; codec takes 3**11
    net_path = tmp_path / "sum11.relunet"
    write_network(network([([[0.5] * 11], [0.0])]), net_path)
    code, stdout, _ = run_cli(
        capsys, "codec", str(net_path), "--k", "2", "--eps", "0.25"
    )
    assert code == 0
    assert stdout.splitlines()[1].split(",")[3] == "1"  # round_trip_ok


def test_codec_single_grid_point_is_usage_error(capsys, tmp_path):
    net_path = tmp_path / "net.relunet"
    run_cli(capsys, "build", "square", "--eps", "1e-2", "--out", str(net_path))
    code, _, stderr = run_cli(
        capsys, "codec", str(net_path), "--grid", "1", "--eps", "0.25"
    )
    assert code == 2
    assert "two grid points" in stderr


def test_codec_prunes_a_degenerate_build(capsys, tmp_path):
    # the order-1 B-spline scales its gate through scalar_mult_network, whose
    # last layer reads one of its three doubling channels with weight 0, so
    # the build is degenerate (86 weights, 83 of them on live rows); encode
    # takes only the pruned network
    net_path = tmp_path / "b1.relunet"
    run_cli(capsys, "build", "bspline", "--m", "1", "--eps", "0.1",
            "--out", str(net_path))
    assert not is_nondegenerate(read_network(net_path))
    code, stdout, stderr = run_cli(
        capsys, "codec", str(net_path), "--k", "5", "--eps", "0.25", "--grid", "2001"
    )
    assert (code, stderr) == (0, "")
    header, row = stdout.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["round_trip_ok"] == "1"
    assert int(fields["bits"]) <= int(fields["bound"])
    assert float(fields["deviation"]) <= 0.25


def test_codec_weight_near_the_float_maximum_is_data_error(capsys, tmp_path):
    # 0.49**-k overflows on its way to 1.7e308: the smallest k is still named
    net_path = tmp_path / "huge.relunet"
    write_network(network([([[1.7e308]], [0.0]), ([[1.0]], [0.0])]), net_path)
    code, stdout, stderr = run_cli(
        capsys, "codec", str(net_path), "--k", "1", "--eps", "0.49"
    )
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "smallest admissible k is 995" in stderr


def test_codec_accepts_the_smallest_k_past_the_float_range(capsys, tmp_path):
    net_path = tmp_path / "huge.relunet"
    write_network(network([([[1.7e308]], [0.0]), ([[1.0]], [0.5])]), net_path)
    code, stdout, stderr = run_cli(
        capsys, "codec", str(net_path), "--k", "995", "--eps", "0.49"
    )
    assert (code, stderr) == (0, "")
    header, row = stdout.strip().splitlines()
    assert dict(zip(header.split(","), row.split(",")))["round_trip_ok"] == "1"


@pytest.mark.parametrize(
    "layers, argv",
    [
        ([([[1.0]], [0.0])], ["--eps", "0.25"]),
        ([([[1.0]], [0.0]), ([[1.0]], [0.0])], ["--eps", "0.25"]),
        ([([[1.7e308]], [0.0]), ([[1.0]], [0.0])], ["--k", "995", "--eps", "0.49"]),
    ],
    ids=["identity", "identity-chain", "huge-chain"],
)
def test_codec_round_trips_where_depth_or_a_size_field_is_full(
    capsys, tmp_path, layers, argv
):
    # connectivity 1 or 2: the header fields hold depth and dimensions up to M,
    # and the bound covers the bits emitted
    net_path = tmp_path / "net.relunet"
    write_network(network(layers), net_path)
    code, stdout, stderr = run_cli(capsys, "codec", str(net_path), *argv)
    assert (code, stderr) == (0, "")
    header, row = stdout.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["round_trip_ok"] == "1"
    assert int(fields["bits"]) <= int(fields["bound"])


def test_codec_all_zero_network_is_data_error(capsys, tmp_path):
    net_path = tmp_path / "zero.relunet"
    write_network(network([([[0.0]], [0.0])]), net_path)
    code, stdout, stderr = run_cli(capsys, "codec", str(net_path), "--eps", "0.25")
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "prune first" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "square"],
        ["sweep", "square", "--grid", "101"],
        ["regions", "NET", "0", "1"],
    ],
)
def test_unwritable_out_is_data_error_with_no_output(capsys, tmp_path, argv):
    net_path = tmp_path / "sq.relunet"
    run_cli(capsys, "build", "square", "--out", str(net_path))
    argv = [str(net_path) if arg == "NET" else arg for arg in argv]
    code, stdout, stderr = run_cli(
        capsys, *argv, "--out", str(tmp_path / "missing" / "x")
    )
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1


def test_regions_sawtooth(capsys, tmp_path):
    net_path = tmp_path / "saw.relunet"
    run_cli(capsys, "build", "sawtooth", "--s", "5", "--out", str(net_path))
    code, stdout, _ = run_cli(capsys, "regions", str(net_path), "0.0", "1.0")
    assert code == 0
    row = stdout.strip().splitlines()[1]
    count, bound = (int(v) for v in row.split(","))
    assert count == 32
    assert bound >= count


def test_regions_past_the_breakpoint_cap_is_data_error(capsys, tmp_path, monkeypatch):
    net_path = tmp_path / "saw.relunet"
    run_cli(capsys, "build", "sawtooth", "--s", "12", "--out", str(net_path))
    # its last hidden layer holds 2 rows at 4097 breakpoints
    monkeypatch.setattr(analysis, "MAX_PWL_VALUES", 8_000)
    code, stdout, stderr = run_cli(capsys, "regions", str(net_path), "0", "1")
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "MAX_PWL_VALUES" in stderr


def test_minpieces_square(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "minpieces",
        "square",
        "0.0",
        "1.0",
        "--eps-list",
        "1e-4",
        "--grid",
        "40001",
    )
    assert code == 0
    row = stdout.strip().splitlines()[1]
    fields = row.split(",")
    assert abs(int(fields[1]) - 36) <= 2
    assert abs(float(fields[3]) - math.sqrt(2) / 4) <= 1e-9


def test_minpieces_quadrature_failure_is_data_error(capsys):
    code, stdout, stderr = run_cli(
        capsys, "minpieces", "weierstrass_partial", "0", "1", "--a", "3",
        "--eps-list", "1e-2", "--grid", "20001",
    )
    assert code == 3
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "quadrature failed" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "NET", "0", "1", "--eps", "0.1"],
        ["build", "square", "--grid", "5"],
        ["sweep", "square", "--eps", "0.1"],
        ["codec", "NET", "--a", "2"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(capsys, tmp_path, argv):
    net_path = tmp_path / "sq.relunet"
    run_cli(capsys, "build", "square", "--out", str(net_path))
    argv = [str(net_path) if arg == "NET" else arg for arg in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_minpieces_unknown_function(capsys):
    code, _, stderr = run_cli(capsys, "minpieces", "cube", "0", "1")
    assert code == 2


def test_build_invalid_params_usage_error(capsys):
    code, _, stderr = run_cli(capsys, "build", "square", "--eps", "0.7")
    assert code == 2
    assert "invalid parameters" in stderr


def test_sweep_postcondition_violation_exit_code(capsys):
    # order-1 B-spline has jumps; its sup error against the indicator stays
    # near 1/2, breaching any small tolerance: the sweep must fail loudly
    code, stdout, stderr = run_cli(
        capsys,
        "sweep",
        "bspline",
        "--m",
        "1",
        "--eps-list",
        "0.01",
        "--grid",
        "2001",
    )
    assert code == 4
    assert "postcondition" in stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["minpieces", "square", "1", "0"],
        ["minpieces", "square", "0", "1", "--eps-list=-1"],
        ["minpieces", "square", "0", "1", "--eps-list", "nan"],
        ["minpieces", "square", "0", "1", "--grid", "-5"],
        ["minpieces", "square", "0", "1", "--grid", "1"],
        ["regions", "NET", "1", "0"],
        ["regions", "NET2D", "0", "1"],
        ["sweep", "square", "--grid", "1"],
        ["minpieces", "square", "0", "inf"],
        ["regions", "NET", "0", "inf"],
        ["codec", "NET", "--D", "inf"],
        ["build", "cosine", "--D", "inf"],
        ["sweep", "cosine", "--D", "inf"],
        ["build", "multiply", "--D", "inf"],
        ["build", "multiply", "--D", "1e300"],
        ["build", "cosine", "--a", "inf"],
        ["build", "cosine", "--a", "1e300"],
        ["build", "weierstrass", "--a", "inf"],
        ["build", "haar", "--s", "100000"],
        ["codec", "NET", "--k", "1000"],
        ["sweep", "multiply", "--grid", "1"],
        ["codec", "NET2D", "--grid", "1"],
        ["codec", "NET", "--eps", "0.6"],
        ["codec", "NET", "--eps", "0"],
        ["codec", "NET", "--k", "0"],
    ],
)
def test_bad_arguments_exit_2_with_one_line(capsys, tmp_path, argv):
    nets = {"NET": tmp_path / "sq.relunet", "NET2D": tmp_path / "box.relunet"}
    run_cli(capsys, "build", "square", "--out", str(nets["NET"]))
    run_cli(capsys, "build", "cutoff", "--m", "2", "--out", str(nets["NET2D"]))
    code, stdout, stderr = run_cli(capsys, *[str(nets.get(a, a)) for a in argv])
    assert code == 2
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert "invalid parameters" in stderr
    if "--k" in argv:
        assert "k = " in stderr
    if "--a" in argv:
        assert "a = " in stderr
    if argv[:2] == ["build", "haar"]:
        assert "n = 100000" in stderr
    if argv[:2] == ["build", "multiply"]:
        assert "D = " in stderr
