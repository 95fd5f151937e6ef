import json

import numpy as np
import pytest

from symext.cli import (
    InputError,
    channel_from_payload,
    encode_matrix,
    main,
    state_from_payload,
    state_to_payload,
)
from symext.constructions import example_state, isotropic
from symext.extend import solve_extension
from symext.quantum import choi_from_kraus, depolarizing_channel, max_entangled_projector
from symext.sampling import random_cptp, random_entangled_pure

CERTIFIED = "one-way capacity Q-> = 0 (certified by symmetric extension)"
NOT_CERTIFIED = "test inconclusive for capacity (no symmetric extension found)"


def write_json(path, payload):
    path.write_text(json.dumps(payload) + "\n")


def identity_channel_payload():
    return {"d_in": 2, "d_out": 2, "kraus": [encode_matrix(np.eye(2))]}


def test_payload_round_trip_is_bit_identical():
    state = example_state(0.37)
    payload = state_to_payload(state)
    text = json.dumps(payload)
    back = state_from_payload(json.loads(text))
    assert back.matrix.tobytes() == state.matrix.tobytes()
    assert back.dims == state.dims
    # serialize again: identical numeric payload
    assert json.dumps(state_to_payload(back)) == text
    # the vectorized encoder writes what an elementwise one writes, ints as floats
    for m in (state.matrix, np.eye(2, dtype=int)):
        reference = [[[float(v.real), float(v.imag)] for v in row] for row in m]
        assert json.dumps(encode_matrix(m)) == json.dumps(reference)


def test_state_payload_diagnostics_name_field_and_residual():
    with pytest.raises(InputError, match="dims"):
        state_from_payload({"matrix": encode_matrix(np.eye(2) / 2)})
    with pytest.raises(InputError, match="matrix"):
        state_from_payload({"dims": [2], "matrix": "oops"})
    bad = {"dims": [2], "matrix": encode_matrix(np.eye(2))}  # trace 2
    with pytest.raises(InputError, match=r"trace.*1\.0"):
        state_from_payload(bad)


def test_channel_payload_diagnostics():
    with pytest.raises(InputError, match="kraus"):
        channel_from_payload({"d_in": 2, "d_out": 2})
    bad = {"d_in": 2, "d_out": 2, "kraus": [encode_matrix(0.5 * np.eye(2))]}
    with pytest.raises(InputError, match="trace-preserving"):
        channel_from_payload(bad)


def test_cmd_nonfinite_kraus_is_input_error(tmp_path, capsys):
    infile = tmp_path / "channel.json"
    for bad in (float("nan"), float("inf")):
        kraus = np.eye(2, dtype=complex)
        kraus[0, 1] = bad
        write_json(infile, {"d_in": 2, "d_out": 2, "kraus": [encode_matrix(kraus)]})
        for argv in (["test", str(infile)], ["choi", str(infile), str(tmp_path / "o.json")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("input error:") and "NaN or Inf" in err


def test_cmd_choi(tmp_path, capsys):
    infile = tmp_path / "channel.json"
    outfile = tmp_path / "choi.json"
    write_json(infile, identity_channel_payload())
    assert main(["choi", str(infile), str(outfile)]) == 0
    payload = json.loads(outfile.read_text())
    assert sorted(payload) == ["dims", "matrix"]
    state = state_from_payload(payload)
    assert np.allclose(state.matrix, max_entangled_projector(2))


def test_cmd_choi_depolarizing_boundary(tmp_path):
    ch = depolarizing_channel(2, 1 / 3)
    infile = tmp_path / "depol.json"
    outfile = tmp_path / "choi.json"
    write_json(
        infile,
        {"d_in": 2, "d_out": 2, "kraus": [encode_matrix(k) for k in ch.kraus]},
    )
    assert main(["choi", str(infile), str(outfile)]) == 0
    state = state_from_payload(json.loads(outfile.read_text()))
    assert np.linalg.norm(state.matrix - isotropic(2, 0.75).matrix) <= 1e-12
    # written by the report's matrix writer, as json.dumps writes the payload
    expected = json.dumps(state_to_payload(choi_from_kraus(ch).state)) + "\n"
    assert outfile.read_text() == expected


def test_cmd_test_feasible_state(tmp_path, capsys):
    infile = tmp_path / "state.json"
    report = tmp_path / "report.json"
    write_json(infile, state_to_payload(example_state(0.4)))
    code = main(["test", str(infile), str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "Feasible" in out and out.splitlines()[-1] == CERTIFIED
    payload = json.loads(report.read_text())
    assert payload["capacity"] == CERTIFIED
    assert payload["verdict"] == "Feasible"
    assert payload["extension"]["dims"] == [3, 3, 3]
    assert max(
        payload["psd_residual"], payload["swap_residual"], payload["pt_residual"]
    ) <= 1e-7


def test_cmd_test_infeasible_state(tmp_path, capsys):
    infile = tmp_path / "state.json"
    write_json(infile, state_to_payload(isotropic(2, 0.9)))
    assert main(["test", str(infile)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == NOT_CERTIFIED


def test_cmd_test_witness_report(tmp_path, capsys):
    infile = tmp_path / "state.json"
    report = tmp_path / "report.json"
    write_json(infile, state_to_payload(isotropic(2, 0.9)))
    assert main(["test", str(infile), str(report)]) == 1
    out = capsys.readouterr().out
    assert "stopped by: witness" in out
    text = report.read_text()
    assert "Infinity" not in text and "NaN" not in text
    payload = json.loads(text)
    assert payload["verdict"] == "InfeasibleNumerical"
    assert payload["stop_reason"] == "witness"
    assert payload["witness_margin"] < 0
    assert payload["iterations"] <= 2
    assert "extension" not in payload


def test_cmd_test_feasible_report_has_no_witness(tmp_path):
    infile = tmp_path / "state.json"
    report = tmp_path / "report.json"
    write_json(infile, state_to_payload(isotropic(2, 0.7)))
    assert main(["test", str(infile), str(report)]) == 0
    payload = json.loads(report.read_text())
    assert payload["stop_reason"] == "face"
    assert payload["witness_margin"] is None
    # the face candidate's marginal is exact to rounding
    assert payload["pt_residual"] <= 1e-12
    # the candidate is exactly swap-invariant, so its residual reads 0
    assert payload["swap_residual"] == 0.0


@pytest.mark.parametrize("payload, d", [
    (state_to_payload(isotropic(4, 0.62)), 4),
    ({"d_in": 3, "d_out": 3,
      "kraus": [encode_matrix(k) for k in depolarizing_channel(3, 0.6).kraus]}, 3),
])
def test_cmd_test_report_text_equals_json_dumps(tmp_path, monkeypatch, payload, d):
    # the report writer formats each distinct number once; its text is what
    # json.dumps writes for the report built with encode_matrix(candidate)
    import symext.cli as cli

    certs, dtypes = [], []

    def solve_and_keep(problem):
        dtypes.append(problem.target.matrix.dtype)
        certs.append(solve_extension(problem))
        return certs[-1]

    monkeypatch.setattr(cli, "solve_extension", solve_and_keep)
    infile, report = tmp_path / "in.json", tmp_path / "report.json"
    write_json(infile, payload)
    assert main(["test", str(infile), str(report)]) == 0
    (cert,) = certs
    # a file's matrix decodes as complex, yet a state with no imaginary
    # part reaches the solver as float64
    if "dims" in payload:
        assert dtypes == [np.float64]
    res = cert.residuals
    expected = {
        "verdict": cert.verdict,
        "psd_residual": res.psd,
        "swap_residual": res.swap,
        "pt_residual": res.pt,
        "iterations": cert.iterations,
        "stop_reason": cert.stop_reason,
        "witness_margin": cert.witness_margin,
        "capacity": CERTIFIED,
        "extension": {"dims": [d, d, d], "matrix": encode_matrix(cert.candidate)},
    }
    assert report.read_text() == json.dumps(expected) + "\n"


def test_error_labels_tell_input_from_internal_faults(tmp_path, capsys, monkeypatch):
    import symext.cli as cli

    infile = tmp_path / "state.json"
    write_json(infile, {"dims": [2, 2, 2], "matrix": encode_matrix(np.eye(8) / 8)})
    assert main(["test", str(infile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "two subsystems" in err

    def broken(problem):
        raise RuntimeError("solver fault")

    # numeric options that are not positive and finite are input errors, not
    # library faults; at --tol inf any candidate passed as Feasible and
    # certified zero capacity for the maximally entangled state
    write_json(infile, state_to_payload(isotropic(2, 0.7)))
    maxent = tmp_path / "maxent.json"
    write_json(maxent, state_to_payload(isotropic(2, 1.0)))
    out_csv = str(tmp_path / "sweep.csv")
    sweep = ["sweep-isotropic", out_csv, "--d", "2", "--f-min", "0.7",
             "--f-max", "0.8", "--steps", "3"]
    channel = tmp_path / "channel.json"
    write_json(channel, identity_channel_payload())
    # an output path that cannot be written: a missing directory, or a
    # directory itself
    missing = str(tmp_path / "no" / "out")
    for argv, named in [
        (["test", str(infile), missing], "cannot write"),
        (["test", str(infile), str(tmp_path)], "cannot write"),
        (["choi", str(channel), missing], "cannot write"),
        (["sweep-isotropic", missing] + sweep[2:], "cannot write"),
        (["sweep-isotropic", str(tmp_path)] + sweep[2:], "cannot write"),
        (["test", str(infile), "--max-iter", "0"], "max_iter"),
        (["test", str(infile), "--tol", "-1"], "tol"),
        (sweep + ["--max-iter", "0"], "max_iter"),
        (["param", str(infile), "--fw-max-iter", "0", "--json"], "fw_max_iter"),
        (["param", str(infile), "--gap-tol", "-1"], "gap_tol"),
        (["test", str(maxent), "--tol", "inf"], "tol"),
        (["param", str(maxent), "--tol", "inf", "--json"], "tol"),
        (sweep + ["--tol", "inf"], "tol"),
        (["param", str(infile), "--gap-tol", "inf"], "gap_tol"),
        # a filter that matches no row and a negative seed are bad options,
        # not failed paper checks
        (["verify-paper", "--only", "no-such-row"], "no checks match"),
        (["verify-paper", "--seed", "-1", "--only", "extension-family"], "seed"),
    ]:
        with monkeypatch.context() as m:
            if named != "cannot write":
                # a bad option is rejected before any solve: an eigh would
                # end as an internal error
                m.setattr(np.linalg, "eigh", no_eigh)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and named in captured.err
        assert "Infinity" not in captured.out

    monkeypatch.setattr(cli, "solve_extension", broken)
    assert main(["test", str(infile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error: RuntimeError: solver fault")

    # LinAlgError is a ValueError, but not an input error
    def singular(problem):
        raise np.linalg.LinAlgError("eigh did not converge")

    monkeypatch.setattr(cli, "solve_extension", singular)
    assert main(["test", str(infile)]) == 2
    assert capsys.readouterr().err.startswith("internal error: LinAlgError:")


def test_cmd_non_integer_dimensions_are_input_errors(tmp_path, capsys):
    # a float dimension is not rounded, and negative dims are an input
    # error rather than a fault inside the solve
    infile = tmp_path / "in.json"
    for payload, name in [
        ({"dims": [2.9, 2.0], "matrix": encode_matrix(np.eye(4) / 4)}, "dimension"),
        ({"dims": [-1, -2], "matrix": encode_matrix(np.eye(2) / 2)}, "dimension"),
        ({"d_in": 2.5, "d_out": 2, "kraus": [encode_matrix(np.eye(2))]}, "d_in"),
    ]:
        write_json(infile, payload)
        assert main(["test", str(infile)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("input error:") and name in captured.err
        assert captured.out == ""


def test_cmd_test_channel_file(tmp_path, capsys):
    ch = depolarizing_channel(2, 0.5)
    infile = tmp_path / "depol.json"
    write_json(
        infile,
        {"d_in": 2, "d_out": 2, "kraus": [encode_matrix(k) for k in ch.kraus]},
    )
    report = tmp_path / "report.json"
    assert main(["test", str(infile), str(report)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == CERTIFIED
    # a channel file runs the solve of its Choi state file: same report
    choi, choi_report = tmp_path / "choi.json", tmp_path / "choi_report.json"
    assert main(["choi", str(infile), str(choi)]) == 0
    assert main(["test", str(choi), str(choi_report)]) == 0
    assert json.loads(report.read_text()) == json.loads(choi_report.read_text())

    write_json(infile, identity_channel_payload())
    capsys.readouterr()
    assert main(["test", str(infile), str(report)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == NOT_CERTIFIED
    assert json.loads(report.read_text())["capacity"] == NOT_CERTIFIED


def test_cmd_test_malformed_input(tmp_path, capsys):
    infile = tmp_path / "bad.json"
    infile.write_text("{not json")
    assert main(["test", str(infile)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err

    write_json(infile, {"dims": [2, 2], "matrix": [[1, 2], [3, 4]]})
    assert main(["test", str(infile)]) == 2
    err = capsys.readouterr().err
    assert "matrix" in err

    half = encode_matrix(np.eye(2) / 2)
    for argv, payload, message in (
        (["test"], [1, 2], "state file must contain a JSON object"),
        (["test"], {"dims": 2, "matrix": half}, "field 'dims' must be a list"),
        (["choi"], [1, 2], "channel file must contain a JSON object"),
        (["test"], {"d_in": 2, "d_out": 2, "kraus": []}, "'kraus' must be a non-empty list"),
        # a cell that is not a [re, im] pair is rejected, not truncated
        (["test"], {"dims": [1, 2], "matrix": [[[0.5, 0, 7], [0, 0]], [[0, 0], [0.5, 0]]]},
         "field 'matrix' is not a nested [re, im] array"),
        (["test"], {"d_in": 1, "d_out": 1, "kraus": [[[1]]]},
         "field 'kraus[0]' is not a nested [re, im] array"),
    ):
        write_json(infile, payload)
        assert main(argv + [str(infile), str(tmp_path / "out.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error:") and message in err


def test_cmd_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep-isotropic", str(out),
        "--d", "2", "--f-min", "0.7", "--f-max", "0.8", "--steps", "11",
    ])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "F,verdict,psd_res,swap_res,pt_res,iters"
    assert len([l for l in lines if not l.startswith("#")]) == 12
    boundary_line = [l for l in lines if l.startswith("# boundary_estimate")]
    assert boundary_line
    assert abs(float(boundary_line[0].split("=")[1]) - 0.75) <= 0.01


def test_cmd_sweep_d3_csv(tmp_path, capsys):
    out = tmp_path / "d3.csv"
    assert main([
        "sweep-isotropic", str(out),
        "--d", "3", "--f-min", "0.5", "--f-max", "0.8", "--steps", "31",
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "F,verdict,psd_res,swap_res,pt_res,iters"
    assert len(lines) == 33 and lines[-1] == "# boundary_estimate = 0.665"
    # the rows either side of the estimate are the bracket the estimate bisects
    assert lines[17].startswith("0.66,Feasible,") and lines[18].startswith("0.67,Infeasible")
    assert "boundary estimate: 0.665" in capsys.readouterr().out


def test_cmd_sweep_single_step(tmp_path):
    out = tmp_path / "one.csv"
    assert main([
        "sweep-isotropic", str(out),
        "--d", "2", "--f-min", "0.7", "--f-max", "0.7", "--steps", "1",
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2  # header + one row, no boundary line
    assert not any(l.startswith("#") for l in lines)


def test_cmd_sweep_d5(tmp_path):
    out = tmp_path / "d5.csv"
    assert main([
        "sweep-isotropic", str(out),
        "--d", "5", "--f-min", "0.55", "--f-max", "0.55", "--steps", "1",
    ]) == 0
    assert out.read_text().splitlines()[1].split(",")[1] == "Feasible"


def test_cmd_sweep_bad_range(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    for d in ("11", "1"):  # side 11**3 = 1331 exceeds MAX_SIDE; d = 1 is no state
        assert main([
            "sweep-isotropic", str(out),
            "--d", d, "--f-min", "0.7", "--f-max", "0.8", "--steps", "5",
        ]) == 2
        assert "input error" in capsys.readouterr().err


def test_cmd_param_json(tmp_path, capsys):
    infile = tmp_path / "state.json"
    write_json(infile, state_to_payload(example_state(0.45)))
    code = main(["param", str(infile), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["certified_zero"] is True
    assert payload["upper"] == 0.0
    assert payload["negativity"] > 0.05
    assert payload["fw_stop"] == "gap"


@pytest.mark.parametrize(
    "channel, flags",
    [(depolarizing_channel(2, 0.5), ["--json"]),
     (random_cptp(np.random.default_rng(23), 2, 3, 2), ["--json"]),
     (random_cptp(np.random.default_rng(23), 2, 3, 2), [])],
    ids=["depol-2-json", "2to3-json", "2to3-text"],
)
def test_cmd_param_channel_file_answers_as_its_choi_file(tmp_path, capsys, channel, flags):
    # param, like test, judges a channel by its Choi state; the 2 -> 3
    # channel's Choi state is 2 x 3, not square
    infile, choi = tmp_path / "channel.json", tmp_path / "choi.json"
    write_json(infile, {"d_in": channel.d_in, "d_out": channel.d_out,
                        "kraus": [encode_matrix(k) for k in channel.kraus]})
    code = main(["param", str(infile)] + flags)
    out = capsys.readouterr().out
    assert main(["choi", str(infile), str(choi)]) == 0
    capsys.readouterr()
    assert main(["param", str(choi)] + flags) == code
    assert capsys.readouterr().out == out


def test_cmd_param_malformed_channel_file_is_input_error(tmp_path, capsys):
    infile = tmp_path / "channel.json"
    write_json(infile, {"d_in": 2, "d_out": 2, "kraus": []})
    assert main(["param", str(infile), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: field 'kraus'")
    write_json(infile, {"d_in": 2, "kraus": [encode_matrix(np.eye(2))]})
    assert main(["param", str(infile), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: channel file is missing required field 'd_out'")
    assert captured.out == ""


def no_eigh(*args, **kwargs):
    raise AssertionError("eigh ran before the input check")


def test_cmd_param_embedded_side_is_input_error(tmp_path, capsys, monkeypatch):
    # 2 x 23 needs an extension of side d_A d_B^2 = 1058 > MAX_SIDE
    infile = tmp_path / "state.json"
    write_json(infile, {"dims": [2, 23], "matrix": encode_matrix(np.eye(46) / 46)})
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert main(["param", str(infile), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and "side 1058" in captured.err
    assert captured.out == ""


def test_cmd_param_one_dimensional_state_is_input_error(tmp_path, capsys, monkeypatch):
    # normalization_factor(1) is undefined: rejected before any solve
    infile = tmp_path / "state.json"
    write_json(infile, {"dims": [1, 1], "matrix": encode_matrix(np.eye(1))})
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    assert main(["param", str(infile), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error:") and "at least 2" in captured.err
    assert captured.out == ""


def test_cmd_param_answers_non_square_beyond_padding(tmp_path, capsys):
    # 11 x 2 runs on its own side 44; a d x d padding would need 1331
    infile = tmp_path / "state.json"
    state = random_entangled_pure(np.random.default_rng(11), (11, 2))
    write_json(infile, state_to_payload(state))
    assert main(["param", str(infile), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["fw_stop"] == "gap"
    assert payload["certified_zero"] is False


def test_cmd_param_prints_certified_line(tmp_path, capsys):
    infile = tmp_path / "state.json"
    write_json(infile, state_to_payload(example_state(0.45)))
    assert main(["param", str(infile)]) == 0
    out = capsys.readouterr().out
    assert "D-> = 0 certified" in out


def test_cmd_param_hashing_above_single_copy_parameter(tmp_path, capsys):
    infile = tmp_path / "state.json"
    write_json(infile, state_to_payload(isotropic(2, 0.9)))
    assert main(["param", str(infile), "--fw-max-iter", "200"]) == 1
    out = capsys.readouterr().out
    assert "hashing lower bound: 0.372" in out
    assert "single-copy parameter:" in out


def test_cmd_verify_paper_filtered(capsys):
    code = main(["verify-paper", "--only", "extension-family"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    assert "extension-family-reduction" in out


def test_cmd_verify_paper_unknown_filter(capsys):
    assert main(["verify-paper", "--only", "does-not-exist"]) == 2


def test_exit_codes_stay_in_contract(tmp_path):
    infile = tmp_path / "state.json"
    write_json(infile, state_to_payload(isotropic(2, 0.5)))
    assert main(["test", str(infile)]) in (0, 1, 2)
    assert main(["test", str(tmp_path / "missing.json")]) == 2


def test_main_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    import symext.cli as cli

    test_file = tmp_path / "test.json"
    param_file = tmp_path / "param.json"
    write_json(test_file, state_to_payload(isotropic(2, 0.9)))
    write_json(param_file, state_to_payload(example_state(0.45)))

    def run(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an invalid option
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    calls = [
        ["test", str(test_file)],
        ["param", str(param_file), "--json"],
        ["test", str(test_file), "--no-such-option"],
    ]
    first = [run(argv) for argv in calls]
    assert [code for code, _, _ in first] == [1, 0, 2]
    assert "--no-such-option" in first[2][2]
    # the same requests again in the same process: same exit codes and output
    assert [run(argv) for argv in calls] == first

    # the parser is built once, and a patched library function is still seen
    assert cli.build_parser() is cli.build_parser()

    def broken(problem):
        raise RuntimeError("solver fault")

    monkeypatch.setattr(cli, "solve_extension", broken)
    code, _, err = run(calls[0])
    assert code == 2 and err.startswith("internal error: RuntimeError: solver fault")
