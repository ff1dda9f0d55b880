"""End-to-end tests for the command-line front end (via main(argv))."""

import json

import pytest

from cylq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# series / enumerate / product / system / solve
# ---------------------------------------------------------------------------


def test_series_euler_text(capsys):
    code, out, _ = run(capsys, "series", "--sum", "euler", "--N", "8")
    assert code == 0
    assert "q^5: 7" in out and "q^7: 15" in out


def test_series_json_envelope(capsys):
    code, out, _ = run(
        capsys, "series", "--sum", "rogers-ramanujan-1", "--N", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "cylq-cli/1"
    assert "pochhammer" in payload["conventions"]
    assert payload["series"]["schema"] == "cylq-series/1"
    assert payload["series"]["q_truncation"] == 6


def test_series_mod12_needs_profile(capsys):
    code, _, err = run(capsys, "series", "--sum", "mod12", "--N", "6")
    assert code == 2
    assert "--profile" in err


def test_enumerate_matches_direct_call(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "cylindric", "--profile=-1,1",
        "--N", "6", "--D", "3",
    )
    assert code == 0
    assert "z^2 q^4: 2" in out


def test_enumerate_objects_lists_count(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--kind", "skew-shifted", "--profile=1,-1",
        "--N", "5", "--D", "3", "--objects",
    )
    assert code == 0
    assert out.startswith("15 objects")


def test_enumerate_objects_match_genfun_with_fractional_weights(capsys):
    # sizes on the half-integer grid between N - 1 and N are below q^N too
    argv = ("enumerate", "--kind", "cylindric", "--profile=-1,1",
            "--weights", "1/2,1", "--N", "2", "--D", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    total = sum(int(line.rsplit(": ", 1)[1]) for line in out.splitlines()[1:])
    code, out, _ = run(capsys, *argv, "--objects")
    assert code == 0
    assert total == 5
    assert out.startswith("%d objects" % total)


def test_product_with_weights(capsys):
    code, out, _ = run(
        capsys, "product", "--kind", "cylindric", "--profile=-1,-1,1",
        "--weights", "1,3,1", "--N", "7",
    )
    assert code == 0
    assert "q^4: 2" in out and "q^6: 4" in out


def test_product_spec_only_json(capsys):
    code, out, _ = run(
        capsys, "product", "--kind", "symmetric", "--profile=1,-1",
        "--N", "4", "--spec-only", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["product"]["schema"].startswith("cylq-product")


def test_product_json_carries_spec_and_series(capsys):
    code, out, _ = run(
        capsys, "product", "--kind", "cylindric", "--profile=-1,-1,1",
        "--weights", "1,3,1", "--N", "7", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "product"
    assert payload["product"]["schema"].startswith("cylq-product")
    assert payload["series"]["q_truncation"] == 7
    assert "pochhammer" in payload["conventions"]


def test_product_symmetric_refuses_weights(capsys):
    # symmetric objects fix their weights, so --weights would be ignored
    code, out, err = run(
        capsys, "product", "--kind", "symmetric", "--profile=1,-1",
        "--weights", "5,5,5", "--N", "6",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: symmetric products") and "--weights" in err


def test_enumerate_symmetric_refuses_weights(capsys):
    code, out, err = run(
        capsys, "enumerate", "--kind", "symmetric", "--profile", "1,-1",
        "--weights", "1,1,1", "--N", "4",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: symmetric objects take no weights")
    assert "weights=None" not in err


@pytest.mark.parametrize("kind", ["skew-shifted", "symmetric"])
def test_product_orientation_is_cylindric_only(capsys, kind):
    code, out, err = run(
        capsys, "product", "--kind", kind, "--profile=1,-1",
        "--orientation", "reflected", "--N", "6",
    )
    assert code == 2
    assert out == ""
    assert err == "error: --orientation applies only to --kind cylindric\n"


def test_product_orientation_defaults_to_direct(capsys):
    argv = ("product", "--kind", "cylindric", "--profile=-1,-1,1",
            "--weights", "1,2,3", "--N", "7", "--spec-only")
    _, default, _ = run(capsys, *argv)
    _, direct, _ = run(capsys, *argv, "--orientation", "direct")
    _, reflected, _ = run(capsys, *argv, "--orientation", "reflected")
    assert default == direct != reflected


def test_system_pretty_and_json(capsys):
    code, out, _ = run(capsys, "system", "--kind", "cylindric", "--profile=-1,1")
    assert code == 0
    assert "H[-1,+1](z)" in out
    code, out, _ = run(
        capsys, "system", "--kind", "cylindric", "--profile=-1,1",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["system"]["schema"].startswith("cylq-system")


def test_solve_select_profile(capsys):
    code, out, _ = run(
        capsys, "solve", "--kind", "cylindric", "--profile=-1,1",
        "--N", "6", "--select=-1,1",
    )
    assert code == 0
    assert "q^0: 1" in out


def test_solve_select_outside_closure_is_usage_error(capsys):
    code, _, err = run(
        capsys, "solve", "--kind", "cylindric", "--profile=-1,1",
        "--N", "5", "--select=1,1",
    )
    assert code == 2
    assert "closure" in err


def test_solve_without_progress_is_usage_error(capsys):
    # zero weights leave a zero-shift cycle that the sweeps cannot resolve
    code, out, err = run(
        capsys, "solve", "--kind", "cylindric", "--profile=1,-1",
        "--weights", "0,0", "--N", "5",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: fixed-point iteration made no progress at z-degree 1")


def test_enumerate_json_objects(capsys):
    argv = ("enumerate", "--kind", "skew-shifted", "--profile=1,-1",
            "--N", "5", "--D", "3", "--objects")
    _, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "enumerate-objects"
    assert payload["kind"] == "skew-shifted" and payload["profile"] == [1, -1]
    assert len(payload["objects"]) == 15
    listed = [" ; ".join(",".join(map(str, d)) for d in obj) for obj in payload["objects"]]
    assert text.splitlines()[1:] == listed


def test_solve_json_matches_text(capsys):
    argv = ("solve", "--kind", "cylindric", "--profile=-1,1", "--N", "6")
    _, text, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "solve"
    assert sorted(payload["solutions"]) == ["-1,1", "1,-1"]
    for name, series in payload["solutions"].items():
        assert series["schema"] == "cylq-series/1"
        assert "%s[%s]  [window q<6" % (payload["symbol"], name) in text


_JSON_COMMANDS = [
    (("series", "--sum", "euler", "--N", "6"), "cylq-cli/1", "series euler"),
    (("enumerate", "--kind", "cylindric", "--profile=-1,1", "--N", "4", "--D", "3"),
     "cylq-cli/1", "enumerate cylindric (-1, 1)"),
    (("enumerate", "--kind", "cylindric", "--profile=-1,1", "--N", "4", "--D", "3",
      "--objects"), "cylq-cli/1", "enumerate-objects"),
    (("product", "--kind", "cylindric", "--profile=-1,1", "--N", "5"),
     "cylq-cli/1", "product"),
    (("product", "--kind", "cylindric", "--profile=-1,1", "--N", "5", "--spec-only"),
     "cylq-cli/1", "product-spec"),
    (("system", "--kind", "cylindric", "--profile=-1,1"), "cylq-cli/1", "system"),
    (("solve", "--kind", "cylindric", "--profile=-1,1", "--N", "5"), "cylq-cli/1", "solve"),
    (("verify", "--case", "euler-sum", "--N", "10"), "cylq-cli/1", "verify"),
    (("fit", "--kind", "cylindric", "--profile=-1,-1,1", "--target", "1,4,5@5"),
     "cylq-fit-result/1", None),
    (("balance", "--max-width", "2"), "cylq-cli/1", "balance"),
]


@pytest.mark.parametrize("argv,schema,command", _JSON_COMMANDS)
def test_json_output_is_one_document(capsys, argv, schema, command):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0 and err == ""
    payload, end = json.JSONDecoder().raw_decode(out)
    assert out[end:] == "\n"
    assert payload["schema"] == schema
    assert payload.get("command") == command


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--sum", "mod12", "--N", "6"],
        ["verify", "--case", "no-such-case"],
        ["fit", "--kind", "cylindric"],
        ["solve", "--kind", "cylindric", "--profile=-1,1", "--N", "5", "--select=1,1"],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_usage_error_leaves_stdout_empty(capsys, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_case_pass(capsys):
    code, out, _ = run(capsys, "verify", "--case", "rogers-ramanujan")
    assert code == 0
    assert "[pass]" in out
    assert "2/2 comparisons equal" in out


def test_verify_window_override_in_summary(capsys):
    code, out, _ = run(capsys, "verify", "--case", "euler-sum", "--N", "50")
    assert code == 0
    assert "through q^49" in out


def test_verify_report_only_case_exits_one(capsys):
    code, out, _ = run(capsys, "verify", "--case", "mixed-weighted-pair")
    assert code == 1
    assert "[DIFF]" in out and "first difference at" in out


def test_verify_unknown_case_is_usage_error(capsys):
    code, _, err = run(capsys, "verify", "--case", "no-such-case")
    assert code == 2
    assert "unknown identity case" in err


def test_verify_z_bound_on_a_case_without_z_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--case", "euler-sum", "--D", "3")
    assert (code, out) == (2, "")
    assert "euler-sum" in err and "z-window" in err
    code, out, _ = run(capsys, "verify", "--case", "mod4-alternating-sum", "--D", "3", "--format", "json")
    assert code == 0 and json.loads(out)["reports"][0]["window"]["z_truncation"] == 3


def test_verify_z_bound_without_case_bounds_the_bivariate_cases(capsys, monkeypatch):
    from cylq import identities

    code, out, _ = run(capsys, "verify", "--N", "1", "--D", "3", "--format", "json")
    assert code in (0, 1)
    for report in json.loads(out)["reports"]:
        own = identities.get_case(report["case"]).window.z_truncation
        assert report["window"] == {"q_truncation": 1, "q_scale": 1,
                                    "z_truncation": None if own is None else 3}
    # a refused --case is a usage error before any case runs
    ran = []
    monkeypatch.setattr(identities, "verify", lambda *a: ran.append(a))
    code, _, err = run(capsys, "verify", "--case", "schmidt-refined", "--case", "euler-sum",
                       "--D", "3")
    assert (code, ran) == (2, []) and "euler-sum" in err


def test_verify_list(capsys):
    code, out, _ = run(capsys, "verify", "--list")
    assert code == 0
    labels = out.split()
    assert "rogers-ramanujan" in labels and labels == sorted(labels)
    code, out, _ = run(capsys, "verify", "--list", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "cylq-cli/1" and payload["command"] == "verify-list"
    assert payload["labels"] == labels


def test_verify_parallel_output_deterministic(capsys):
    cases = ["hook-counts", "euler-sum", "rogers-ramanujan", "goellnitz-sums"]
    _, serial, _ = run(capsys, "verify", *sum([["--case", c] for c in cases], []))
    _, parallel, _ = run(
        capsys, "verify", "--jobs", "4",
        *sum([["--case", c] for c in reversed(cases)], []),
    )
    assert serial == parallel


def test_verify_json_reports_sorted_and_versioned(capsys):
    code, out, _ = run(
        capsys, "verify", "--case", "euler-sum", "--case", "rogers-ramanujan",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "cylq-cli/1"
    labels = [r["case"] for r in payload["reports"]]
    assert labels == sorted(labels)
    for report in payload["reports"]:
        assert report["schema"] == "cylq-report/1"
        assert "window" in report and "conventions" in report


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_inline_recovers_weights(capsys):
    code, out, _ = run(
        capsys, "fit", "--kind", "cylindric", "--profile=-1,-1,1",
        "--target", "1,4,5@5",
    )
    assert code == 0
    assert "weights 1,3,1 (forward check: ok)" in out


def test_fit_empty_result_is_not_an_error(capsys):
    code, out, _ = run(
        capsys, "fit", "--kind", "cylindric", "--profile=-1,-1,1",
        "--target", "6,6,5@5",
    )
    assert code == 0
    assert "no weight vectors" in out


def test_fit_shape_infeasible_exits_two(capsys):
    code, out, _ = run(
        capsys, "fit", "--kind", "cylindric", "--profile=-1,-1,1",
        "--target", "1,4,5@5", "--target", "1@2",
    )
    assert code == 2
    assert "infeasible by shape" in out


def test_fit_problem_file_and_json_report(tmp_path, capsys):
    from cylq.fitkit import FitProblem

    problem = FitProblem.make("skew-shifted", (1, -1), (((1, 1, 1), 1), ((1,), 2)))
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(problem.to_json()), encoding="utf-8")
    code, out, _ = run(capsys, "fit", "--problem", str(path), "--format", "json")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "cylq-fit-result/1"
    assert [s["weights"] for s in report["solutions"]] == [[0, 1, 0]]


def test_fit_problem_not_an_object_is_usage_error(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text("[1, 2]", encoding="utf-8")
    code, _, err = run(capsys, "fit", "--problem", str(path))
    assert code == 2
    assert err == "error: not a cylq-fit/1 payload\n"


def test_fit_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "fit", "--problem", "/no/such/file.json")
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------------------
# balance and argparse-level behavior
# ---------------------------------------------------------------------------


def test_balance_small_width(capsys):
    code, out, _ = run(capsys, "balance", "--max-width", "5")
    assert code == 0
    assert "width 5: 32/32 balanced" in out
    assert "all 62 profiles balanced" in out


def test_balance_json(capsys):
    code, out, _ = run(capsys, "balance", "--max-width", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["census"]["3"] == [8, 8]
    assert payload["balanced"] == payload["total"] == 14


def test_balance_help_describes_max_width(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["balance", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--max-width W check every profile of width 1..W: 2^(W+1) - 2 profiles" in text


def test_bad_profile_is_usage_error(capsys):
    for argv in (
        ["enumerate", "--kind", "cylindric", "--profile", "0,2", "--N", "4"],
        ["system", "--kind", "cylindric", "--profile", "1,-1", "--normalized", "maybe"],
        ["solve", "--kind", "cylindric", "--profile", "1,-1", "--N", "4", "--normalized", "maybe"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().out == "", argv


@pytest.mark.parametrize("command", ["system", "solve"])
def test_normalized_help_names_its_values(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--normalized NORMALIZED auto (default)" in text
    assert "true: require it" in text and "false: the unnormalized system" in text


def test_verify_help_describes_jobs_and_windows(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    assert "--jobs K run the cases on K threads of one process" in text
    assert "no faster" in text
    assert "--N N q-window of every case" in text
    assert "--D D z-window bound of every case" in text


def test_bad_window_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["series", "--sum", "euler", "--N", "0"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["verify", "--jobs", "0"], ["balance", "--max-width", "0"]]
)
def test_nonpositive_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be an integer >= 1" in err
    assert "window" not in err


@pytest.mark.parametrize(
    "argv", [["verify", "--jobs", "x"], ["series", "--sum", "euler", "--N", "1.5"]]
)
def test_non_integer_count_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be an integer >= 1" in err
    assert "_positive_int" not in err
