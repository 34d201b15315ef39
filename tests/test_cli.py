import json
import time
import warnings

import numpy as np
import pytest

import fredkit as fk
from fredkit.cli import COMMANDS, RunConfig, main, validate
from fredkit.serialize import obj_to_complex, write_complex_csv
from test_conventions import twin_kernel
from test_hermitian_route import library
from test_serialize import _reference_dumps


def run_cli(tmp_path, doc, *args):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out.txt"
    code = main(["-c", str(cfg), "--output", str(out), *args])
    return code, (out.read_text() if out.exists() else "")


MEHLER_EIG = {
    "kernel": {"name": "mehler", "r": 0.5},
    "measure": {"kind": "gauss-hermite-prob", "n": 40},
    "command": "eig",
    "params": {},
    "output": {"format": "json", "destination": None},
}

YZ_DET = {
    "kernel": {"name": "separable", "coeffs": [1.0], "rights": [[0, 1]], "lefts": [[0, 1]]},
    "measure": {"kind": "gauss-legendre", "n": 8, "a": 0.0, "b": 1.0},
    "command": "det",
    "params": {"lambda_grid": "0:4:81"},
    "output": {"format": "csv", "destination": None},
}


class TestRun:
    def test_mehler_eig_json(self, tmp_path):
        code, text = run_cli(tmp_path, MEHLER_EIG)
        assert code == 0
        doc = json.loads(text)
        vals = [obj_to_complex(v) for v in doc["eigenvalues"]]
        for j in range(4):
            assert abs(vals[j] - 0.5 ** j) <= 1e-6
        assert doc["hermitian"] is True

    def test_det_grid_brackets_eigenvalue(self, tmp_path):
        code, text = run_cli(tmp_path, YZ_DET)
        assert code == 0
        rows = [line.split(",") for line in text.strip().splitlines()]
        lams = np.array([float(r[0]) for r in rows])
        dets = np.array([float(r[1]) for r in rows])
        prods = dets[:-1] * dets[1:]
        idx = np.nonzero(prods <= 0)[0]
        assert idx.size >= 1
        assert lams[idx[0]] <= 3.0 <= lams[idx[-1] + 1]

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert main(["-c", str(cfg)]) == 2

    def test_invalid_params_exit_1(self, tmp_path):
        doc = dict(MEHLER_EIG, kernel={"name": "mehler", "r": 2.0})
        code, _ = run_cli(tmp_path, doc)
        assert code == 1

    def test_unknown_command_exits_2(self, tmp_path):
        doc = dict(MEHLER_EIG, command="explode")
        code, _ = run_cli(tmp_path, doc)
        assert code == 2

    def test_byte_determinism(self, tmp_path):
        _, one = run_cli(tmp_path, MEHLER_EIG)
        _, two = run_cli(tmp_path, MEHLER_EIG)
        assert one == two

    def test_solve_with_rhs_file(self, tmp_path):
        rule = fk.gauss_legendre(8, 0.0, 1.0)
        rhs = tmp_path / "rhs.csv"
        write_complex_csv(rhs, rule.nodes.reshape(-1, 1).astype(complex))
        doc = {
            "kernel": YZ_DET["kernel"],
            "measure": YZ_DET["measure"],
            "command": "solve",
            "params": {"lambda": {"re": 1.0, "im": 0.0}, "rhs": str(rhs)},
            "output": {"format": "json", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        sol = np.array([obj_to_complex(v) for v in json.loads(text)["solution"]])
        assert sol.real == pytest.approx(1.5 * rule.nodes, abs=1e-9)

    def test_near_eigenvalue_solve_exits_1(self, tmp_path):
        doc = {
            "kernel": YZ_DET["kernel"],
            "measure": YZ_DET["measure"],
            "command": "solve",
            "params": {"lambda": {"re": 3.0, "im": 0.0}, "rhs": "ones"},
            "output": {"format": "json", "destination": None},
        }
        code, _ = run_cli(tmp_path, doc)
        assert code == 1

    def test_powerit_trace(self, tmp_path):
        doc = {
            "kernel": {"name": "mehler", "r": 0.5},
            "measure": {"kind": "gauss-hermite-prob", "n": 40},
            "command": "powerit",
            "params": {"k": 2, "tol": 1e-10, "nmax": 400},
            "output": {"format": "json", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        doc_out = json.loads(text)
        ests = [obj_to_complex(v) for v in doc_out["estimates"]]
        assert abs(ests[0] - 1.0) <= 1e-6
        assert abs(ests[1] - 0.5) <= 1e-6
        assert len(doc_out["ratios"]) == 2

    def test_trace_command(self, tmp_path):
        doc = {
            "kernel": {"name": "separable", "coeffs": [1.0], "rights": [[0, 1]],
                       "lefts": [[0, 0, 1]]},
            "measure": YZ_DET["measure"],
            "command": "trace",
            "params": {"n": 0},
            "output": {"format": "json", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        assert json.loads(text)["value"] == pytest.approx(1.0 / 15.0, abs=1e-12)

    def test_jordan_command_on_defective(self, tmp_path):
        doc = {
            "kernel": {"name": "defective", "lam": {"re": 0.5, "im": 0.0}, "m": 2},
            "measure": {"kind": "gauss-legendre", "n": 6, "a": 0.0, "b": 1.0},
            "command": "jordan",
            "params": {"cluster_tol": 1e-5},
            "output": {"format": "json", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        blocks = json.loads(text)["blocks"]
        sizes = sorted(b["m"] for b in blocks)
        assert sizes == [1, 1, 1, 1, 2]
        top = max(blocks, key=lambda b: b["m"])
        assert obj_to_complex(top["lambda"]) == pytest.approx(0.5, abs=1e-8)

    def test_grid_kernel_from_csv(self, tmp_path):
        rule = fk.gauss_legendre(6, 0.0, 1.0)
        table = fk.separable_kernel([1.0], [lambda y: y], [lambda z: z]).sample_matrix(rule)
        path = tmp_path / "table.csv"
        write_complex_csv(path, table)
        doc = {
            "kernel": {"name": "grid", "csv": str(path)},
            "measure": {"kind": "gauss-legendre", "n": 6, "a": 0.0, "b": 1.0},
            "command": "djf",
            "params": {},
            "output": {"format": "json", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        vals = [obj_to_complex(v) for v in json.loads(text)["eigenvalues"]]
        assert abs(vals[0] - 1.0 / 3.0) <= 1e-12

    @pytest.mark.parametrize("command", ["eig", "det"])
    def test_nan_grid_exits_1(self, tmp_path, capsys, command):
        rule = fk.gauss_legendre(8, 0.0, 1.0)
        table = np.ones((8, 8), dtype=complex)
        table[3, 4] = np.nan
        path = tmp_path / "table.csv"
        write_complex_csv(path, table)
        doc = {
            "kernel": {"name": "grid", "csv": str(path)},
            "measure": {"kind": "gauss-legendre", "n": 8, "a": 0.0, "b": 1.0},
            "command": command,
            "params": {"lambda": 0.5},
            "output": {"format": "json", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 1
        assert text == ""
        assert "EvaluationError" in capsys.readouterr().err

    def test_iterate_csv(self, tmp_path):
        doc = {
            "kernel": YZ_DET["kernel"],
            "measure": YZ_DET["measure"],
            "command": "iterate",
            "params": {"n": 2},
            "output": {"format": "csv", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        from fredkit.serialize import read_complex_csv
        import io

        M = read_complex_csv(io.StringIO(text))
        rule = fk.gauss_legendre(8, 0.0, 1.0)
        want = np.outer(rule.nodes, rule.nodes) / 3.0
        assert np.max(np.abs(M - want)) <= 1e-15

    def test_dump_operator(self, tmp_path):
        prefix = tmp_path / "op"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(MEHLER_EIG))
        out = tmp_path / "o.json"
        code = main(["-c", str(cfg), "--output", str(out), "--dump-operator", str(prefix)])
        assert code == 0
        for suffix in ("K", "A", "B"):
            assert (tmp_path / f"op_{suffix}.csv").exists()

    def test_dump_vectors(self, tmp_path):
        prefix = tmp_path / "vec"
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(MEHLER_EIG))
        out = tmp_path / "o.json"
        code = main(["-c", str(cfg), "--output", str(out), "--dump-vectors", str(prefix)])
        assert code == 0
        from fredkit.serialize import read_complex_csv

        P = read_complex_csv(tmp_path / "vec_P.csv")
        assert P.shape == (40, json.loads(out.read_text())["retained"])
        rule = fk.gauss_hermite_prob(40)
        assert np.max(np.abs(P[:, 1].real) - np.abs(rule.nodes)) <= 1e-4

    def test_inline_measure_rule(self, tmp_path):
        rule = fk.gauss_legendre(8, 0.0, 1.0)
        doc = dict(YZ_DET, measure=rule.to_dict(), command="djf", params={})
        doc["output"] = {"format": "json", "destination": None}
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        vals = [obj_to_complex(v) for v in json.loads(text)["eigenvalues"]]
        assert abs(vals[0] - 1.0 / 3.0) <= 1e-12

    def test_console_entry_point(self, tmp_path):
        import subprocess
        import sys

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(MEHLER_EIG))
        proc = subprocess.run(
            [sys.executable, "-m", "fredkit.cli", "-c", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["hermitian"] is True

    def test_svd_command(self, tmp_path):
        doc = {
            "kernel": {"name": "separable", "coeffs": [1.0], "rights": [[0, 1]],
                       "lefts": [[0, 0, 1]]},
            "measure": YZ_DET["measure"],
            "command": "svd",
            "params": {},
            "output": {"format": "json", "destination": None},
        }
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        doc_out = json.loads(text)
        assert doc_out["singular_values"][0] == pytest.approx(1 / np.sqrt(15), abs=1e-12)
        assert doc_out["rank_numerical"] == 1

    def test_subcommand_overrides_config(self, tmp_path):
        doc = dict(MEHLER_EIG, command="djf")
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "o.json"
        code = main(["eig", "-c", str(cfg), "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["hermitian"] is True


GL8_JSON = {"kind": "gauss-legendre", "n": 8, "a": 0.0, "b": 1.0}
# command -> (kernel, measure, params) of a small run, one per command
EVERY_COMMAND = {
    "eig": (MEHLER_EIG["kernel"], MEHLER_EIG["measure"], {}),
    "djf": ({"name": "separable", "coeffs": [{"re": 1.0, "im": 0.5}], "rights": [[0, 1]],
             "lefts": [[0, 1]]}, GL8_JSON, {}),
    "jordan": ({"name": "defective", "lam": 0.5, "m": 2}, dict(GL8_JSON, n=6),
               {"cluster_tol": 1e-5}),
    "svd": (YZ_DET["kernel"], GL8_JSON, {}),
    "solve": (YZ_DET["kernel"], GL8_JSON, {"lambda": {"re": 1.0, "im": 0.5}, "rhs": "ones"}),
    "det": (YZ_DET["kernel"], GL8_JSON, {"lambda_grid": "0:4:9"}),
    "iterate": (YZ_DET["kernel"], GL8_JSON, {"n": 2}),
    "powerit": (MEHLER_EIG["kernel"], MEHLER_EIG["measure"], {"k": 2, "nmax": 400}),
    "trace": (YZ_DET["kernel"], GL8_JSON, {"n": 1}),
    "validate": ({"name": "mehler", "r": 1.5}, MEHLER_EIG["measure"], {}),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_json_output_is_a_fixed_point(tmp_path, command):
    """Each command's JSON is what the recursive writer makes of the parsed
    document: ".17g" round-trips a double, so parsing loses nothing."""
    kernel, measure, params = EVERY_COMMAND[command]
    doc = {"kernel": kernel, "measure": measure, "command": command, "params": params,
           "output": {"format": "json", "destination": None}}
    code, text = run_cli(tmp_path, doc)
    assert code == 0
    assert _reference_dumps(json.loads(text), indent=2) + "\n" == text


class TestValidate:
    def test_valid_config_empty_report(self):
        assert validate(RunConfig.from_dict(MEHLER_EIG)) == []

    def test_zero_size_measure(self):
        doc = dict(MEHLER_EIG, measure={"kind": "gauss-hermite-prob", "n": 0})
        report = validate(RunConfig.from_dict(doc))
        assert len(report) == 1 and "measure.n" in report[0]

    def test_bad_correlation(self):
        doc = dict(MEHLER_EIG, kernel={"name": "mehler", "r": 1.5})
        report = validate(RunConfig.from_dict(doc))
        assert len(report) == 1 and "kernel.r" in report[0]

    def test_validate_command_reports_instead_of_failing(self, tmp_path):
        doc = dict(MEHLER_EIG, command="validate",
                   kernel={"name": "mehler", "r": 1.5})
        code, text = run_cli(tmp_path, doc)
        assert code == 0
        assert any("kernel.r" in v for v in json.loads(text)["violations"])

    def test_round_trip_random_configs(self):
        rng = np.random.default_rng(15)
        kernels = [
            {"name": "mehler", "r": 0.3},
            {"name": "separable", "coeffs": [1.0], "rights": [[0, 1]], "lefts": [[0, 1]]},
            {"name": "defective", "lam": {"re": 0.5, "im": 0.0}, "m": 2},
        ]
        measures = [
            {"kind": "gauss-hermite-prob", "n": 12},
            {"kind": "gauss-legendre", "n": 8, "a": 0.0, "b": 1.0},
            {"kind": "discrete", "points": [0.0, 1.0], "weights": [0.5, 0.5]},
        ]
        for _ in range(100):
            doc = {
                "kernel": kernels[rng.integers(len(kernels))],
                "measure": measures[rng.integers(len(measures))],
                "command": str(rng.choice(["eig", "djf", "svd", "trace"])),
                "params": {"n": int(rng.integers(0, 5))},
                "output": {
                    "format": str(rng.choice(["json", "csv"])),
                    "destination": None,
                },
            }
            config = RunConfig.from_dict(doc)
            assert RunConfig.from_dict(config.to_dict()) == config
            assert config.to_dict() == doc


GL8 = {"kind": "gauss-legendre", "n": 8, "a": 0.0, "b": 1.0}
SEPARABLE = {"name": "separable", "coeffs": [1.0], "rights": [[0, 1]], "lefts": [[0, 1]]}

# (id, config changes on top of MEHLER_EIG, exit code, label stderr must name)
MALFORMED = [
    ("iterate-n-text", {"command": "iterate", "params": {"n": "x"}}, 1, "params.n:"),
    ("mehler-r-text", {"kernel": {"name": "mehler", "r": "abc"}}, 1, "kernel.r:"),
    ("defective-m-text", {"kernel": {"name": "defective", "lam": 0.5, "m": "two"},
                          "measure": GL8}, 1, "kernel.m:"),
    ("separable-coeff-text", {"kernel": dict(SEPARABLE, coeffs=["x"]), "measure": GL8},
     1, "kernel.coeffs:"),
    ("inline-weights-text", {"measure": {"nodes": [0.0, 1.0], "weights": ["a", "b"]}},
     1, "measure.weights:"),
    ("kernel-not-object", {"kernel": [1, 2]}, 2, "kernel:"),
    ("powerit-tol-text", {"command": "powerit", "params": {"tol": "tiny"}}, 1, "params.tol:"),
    ("solve-lambda-short", {"command": "solve", "params": {"lambda": [1.0]}},
     1, "params.lambda:"),
    ("mehler-r-missing", {"kernel": {"name": "mehler"}}, 1, "kernel.r:"),
    ("legendre-b-missing", {"measure": {"kind": "gauss-legendre", "n": 8, "a": 0.0}},
     1, "measure.b:"),
    ("separable-lefts-missing", {"kernel": {k: v for k, v in SEPARABLE.items() if k != "lefts"},
                                 "measure": GL8}, 1, "kernel.lefts:"),
    ("solve-lambda-missing", {"command": "solve", "params": {}}, 1, "params.lambda:"),
    ("hermite-over-cap", {"measure": {"kind": "gauss-hermite-prob", "n": 321}}, 1, "measure.n:"),
    ("legendre-over-cap", {"measure": dict(GL8, n=1025)}, 1, "measure.n:"),
    ("legendre-n-float", {"measure": dict(GL8, n=8.5)}, 1, "measure.n:"),
    ("discrete-weight-infinite", {"measure": {"kind": "discrete", "points": [0.0, 1.0],
                                              "weights": [float("inf"), 1.0]}}, 1, "measure:"),
    ("grid-csv-missing", {"kernel": {"name": "grid", "csv": "no-such-dir/absent.csv"},
                          "measure": GL8}, 1, "kernel.csv:"),
    ("grid-csv-not-path", {"kernel": {"name": "grid", "csv": 5}, "measure": GL8},
     1, "kernel.csv:"),
    ("det-grid-malformed", {"command": "det", "params": {"lambda_grid": "0:1"}},
     1, "params.lambda_grid:"),
    ("det-grid-over-cap", {"command": "det", "params": {"lambda_grid": "0:1:10000000000000"}},
     1, "params.lambda_grid:"),
    ("det-method-unknown", {"command": "det", "params": {"method": "lu"}}, 1, "params.method:"),
    ("det-method-number", {"command": "det", "params": {"method": 3}}, 1, "params.method:"),
    ("det-lambda-nan", {"command": "det", "params": {"lambda": float("nan")}},
     1, "params.lambda:"),
    ("det-grid-infinite", {"command": "det", "params": {"lambda_grid": "-inf:0:3"}},
     1, "params.lambda_grid:"),
    ("solve-lambda-infinite", {"command": "solve", "params": {"lambda": [0.0, float("inf")]}},
     1, "params.lambda:"),
    # a complex literal is {"re", "im"} (either may be left out) or a pair [re, im]
    ("det-lambda-wrong-key", {"command": "det", "params": {"lambda": {"real": 1.5}}},
     1, "params.lambda:"),
    ("det-lambda-extra-key", {"command": "det", "params": {"lambda": {"re": 1.5, "img": 2}}},
     1, "params.lambda:"),
    ("det-lambda-empty-object", {"command": "det", "params": {"lambda": {}}},
     1, "params.lambda:"),
    ("det-lambda-triple", {"command": "det", "params": {"lambda": [1.5, 0, 7]}},
     1, "params.lambda:"),
    ("solve-lambda-text-part", {"command": "solve", "params": {"lambda": ["1.5", 0]}},
     1, "params.lambda:"),
    ("solve-lambda-text-re", {"command": "solve", "params": {"lambda": {"re": "1.5"}}},
     1, "params.lambda:"),
    ("separable-coeff-wrong-key", {"kernel": dict(SEPARABLE, coeffs=[{"real": 1.0}]),
                                   "measure": GL8}, 1, "kernel.coeffs:"),
    ("defective-lam-extra-key", {"kernel": {"name": "defective", "m": 2,
                                            "lam": {"re": 0.5, "im": 0.0, "abs": 0.5}},
                                 "measure": GL8}, 1, "kernel.lam:"),
    # a bool or a string is not a number, in a literal or in one of its parts
    ("det-lambda-true", {"command": "det", "params": {"lambda": True}}, 1, "params.lambda:"),
    ("det-lambda-text", {"command": "det", "params": {"lambda": "1+2j"}}, 1, "params.lambda:"),
    ("solve-lambda-bool-pair", {"command": "solve", "params": {"lambda": [True, False]}},
     1, "params.lambda:"),
    ("det-lambda-re-true", {"command": "det", "params": {"lambda": {"re": True}}},
     1, "params.lambda:"),
    ("separable-coeff-true", {"kernel": dict(SEPARABLE, coeffs=[True]), "measure": GL8},
     1, "kernel.coeffs:"),
    ("separable-coeff-complex-text", {"kernel": dict(SEPARABLE, coeffs=["1+2j"]),
                                      "measure": GL8}, 1, "kernel.coeffs:"),
    ("defective-lam-true", {"kernel": {"name": "defective", "lam": True, "m": 2},
                            "measure": GL8}, 1, "kernel.lam:"),
    ("defective-lam-text", {"kernel": {"name": "defective", "lam": "0.5", "m": 2},
                            "measure": GL8}, 1, "kernel.lam:"),
    ("iterate-n-infinite", {"command": "iterate", "params": {"n": float("inf")}},
     1, "params.n:"),
    # each field is read by the library's own check: a number or an array
    # of numbers holds no bool or string, and a count is never truncated
    ("mehler-r-numeric-text", {"kernel": {"name": "mehler", "r": "0.5"}}, 1, "kernel.r:"),
    ("legendre-a-true-b-text", {"measure": dict(GL8, a=True, b="2")}, 1, "measure.a:"),
    ("legendre-b-numeric-text", {"measure": dict(GL8, b="2")}, 1, "measure.b:"),
    ("powerit-tol-numeric-text", {"command": "powerit", "params": {"tol": "1e-9"}},
     1, "params.tol:"),
    ("powerit-tol-true", {"command": "powerit", "params": {"tol": True}}, 1, "params.tol:"),
    ("jordan-cluster-tol-text", {"command": "jordan", "params": {"cluster_tol": "1e-4"}},
     1, "params.cluster_tol:"),
    ("jordan-cluster-tol-negative", {"command": "jordan", "params": {"cluster_tol": -1e-4}},
     1, "params.cluster_tol:"),
    ("powerit-k-true", {"command": "powerit", "params": {"k": True}}, 1, "params.k:"),
    ("inline-nodes-numeric-text", {"measure": {"nodes": ["0", "1"], "weights": [0.5, 0.5]}},
     1, "measure.nodes:"),
    ("inline-weights-true", {"measure": {"nodes": [0.0, 1.0], "weights": [True, 0.5]}},
     1, "measure.weights:"),
    ("discrete-points-true", {"measure": {"kind": "discrete", "points": [0.0, True],
                                          "weights": [0.5, 0.5]}}, 1, "measure.points:"),
    ("iterate-n-fraction", {"command": "iterate", "params": {"n": 2.7}}, 1, "params.n:"),
    ("powerit-nmax-fraction", {"command": "powerit", "params": {"nmax": 2.9}},
     1, "params.nmax:"),
    ("defective-m-fraction", {"kernel": {"name": "defective", "lam": 0.5, "m": 2.9},
                              "measure": GL8}, 1, "kernel.m:"),
    ("trace-n-negative", {"command": "trace", "params": {"n": -1}}, 1, "params.n:"),
    ("params-not-object", {"params": "x"}, 2, "params:"),
    ("destination-not-path", {"output": {"format": "json", "destination": 5}},
     2, "output.destination:"),
]


class TestMalformedConfigs:
    """Every malformed config exits 1 or 2 with the failing field named on
    stderr; none lets an exception escape main."""

    @pytest.mark.parametrize(
        "changes, code, label", [case[1:] for case in MALFORMED], ids=[case[0] for case in MALFORMED]
    )
    def test_exit_code_and_label(self, tmp_path, capsys, changes, code, label):
        out = tmp_path / "out.json"
        doc = dict(MEHLER_EIG, output={"format": "json", "destination": str(out)})
        doc.update(changes)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["-c", str(cfg)]) == code
        assert label in capsys.readouterr().err
        assert not out.exists()
        if code == 1:  # a field violation: validate names the same field
            report = validate(RunConfig.from_dict(doc))
            assert any(v.startswith(label) for v in report)

    def test_unwritable_destination_exits_2(self, tmp_path, capsys):
        doc = dict(MEHLER_EIG, output={"format": "json",
                                       "destination": str(tmp_path / "absent" / "out.json")})
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        assert main(["-c", str(cfg)]) == 2
        assert "output error" in capsys.readouterr().err


def test_overflowing_determinant_exits_1(tmp_path, capsys):
    """lambda = 1e308 (1 + i) is finite, so validate passes it; the
    determinant overflows and is refused when it is computed."""
    out = tmp_path / "out.json"
    doc = dict(MEHLER_EIG, command="det", params={"lambda": {"re": 1e308, "im": 1e308}},
               output={"format": "json", "destination": str(out)})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        assert main(["-c", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("InvalidArgumentError: direct D(lambda=1e+308+1e+308j) = ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("method", ["direct", "product"])
def test_overflowing_determinant_prints_its_refusal_only(tmp_path, capsys, method):
    """lambda = 1e300 on Mehler GH16: D(lambda) lies past the float range
    by either method.  With warnings as errors the run exits 1, and stderr
    is the refusal's one line, with no numpy warning before it."""
    doc = dict(MEHLER_EIG, command="det", params={"lambda": 1e300, "method": method},
               measure={"kind": "gauss-hermite-prob", "n": 16})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(tmp_path, doc)
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith(f"InvalidArgumentError: {method} D(lambda=1e+300+0j) = ")
    assert err.count("\n") == 1


def test_overflowing_solve_exits_1(tmp_path, capsys):
    """At lambda = 1e308 (1 + i) the 1-norm of I - lambda*A overflows: the
    solve is refused as invalid, not as near an eigenvalue, and no numpy
    overflow warning is printed."""
    doc = dict(MEHLER_EIG, command="solve",
               params={"lambda": {"re": 1e308, "im": 1e308}, "rhs": "ones"},
               measure={"kind": "gauss-hermite-prob", "n": 8})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(tmp_path, doc)
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("InvalidArgumentError: I - lambda*A at lambda=1e+308+1e+308j has 1-norm inf")
    assert err.count("\n") == 1


YZ10_ITERATE = {
    "kernel": {"name": "separable", "coeffs": [10.0], "rights": [[0, 1]], "lefts": [[0, 1]]},
    "measure": {"kind": "gauss-legendre", "n": 8, "a": 0.0, "b": 1.0},
    "command": "iterate",
    "params": {"n": 700},
    "output": {"format": "json", "destination": None},
}


def test_overflowing_iterate_exits_1(tmp_path, capsys):
    # eigenvalue 10/3: the 700th iterate is about (10/3)^699 ~ 1e365
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run_cli(tmp_path, YZ10_ITERATE)
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == (
        "InvalidArgumentError: iterate n=700 overflows: its entries are not finite\n")


def test_iterate_output_file_has_the_stdout_bytes(tmp_path, capsys):
    """The 20th iterate of y z on Gauss-Legendre 128, 16,384 complex entries
    with zero imaginary parts: --output writes the UTF-8 bytes of the text
    printed to stdout."""
    doc = dict(YZ10_ITERATE, kernel=YZ_DET["kernel"], params={"n": 20},
               measure={"kind": "gauss-legendre", "n": 128, "a": 0.0, "b": 1.0})
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["-c", str(cfg)]) == 0
    printed = capsys.readouterr().out
    code, _text = run_cli(tmp_path, doc)
    assert code == 0
    assert (tmp_path / "out.txt").read_bytes() == printed.encode("utf-8")
    assert printed == _reference_dumps(json.loads(printed), indent=2) + "\n"
    assert len(json.loads(printed)["matrix"]) == 128


def test_huge_iterate_count_is_fast(tmp_path):
    # the 1e8-th iterate of y z (eigenvalue 1/3) underflows to zero; doubling
    # reaches it in 26 squarings and 11 extra products, a few milliseconds,
    # where n - 1 products take minutes: the limit leaves room for a slow host
    doc = dict(YZ10_ITERATE, kernel=YZ_DET["kernel"], params={"n": 100_000_000})
    start = time.perf_counter()
    code, text = run_cli(tmp_path, doc)
    assert time.perf_counter() - start < 10.0
    assert code == 0
    doc = json.loads(text)
    assert doc["n"] == 100_000_000
    assert all(v == 0 for row in doc["matrix"] for entry in row for v in entry.values())


def test_lapack_failure_exits_1(tmp_path, capsys, monkeypatch):
    """A LinAlgError from the eigh, on Mehler GH40 (dsyevd) and on its complex
    twin read from a grid (zheevr), exits 1 with nothing written, from every
    command that reads the eigh."""
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Internal Error.")

    twin = tmp_path / "twin.csv"
    write_complex_csv(twin, twin_kernel(0.8).sample_matrix(fk.gauss_hermite_prob(40)))
    monkeypatch.setattr(library("eigh"), "eigh", fail)
    for kernel in (MEHLER_EIG["kernel"], {"name": "grid", "csv": str(twin)}):
        for command, params in (("eig", {}), ("djf", {}), ("svd", {}), ("solve", {"lambda": 0.5})):
            code, text = run_cli(tmp_path, dict(MEHLER_EIG, kernel=kernel, command=command,
                                                params=params))
            assert (code, text) == (1, "")
            assert capsys.readouterr().err.startswith("ConvergenceError: eigh did not converge")


def test_fredkit_leaves_the_environment_as_it_found_it(tmp_path):
    """Importing fredkit and running the CLI read and write no environment
    variable: with the retired FREDKIT_THREADS set and no BLAS thread
    variable, os.environ is the same afterwards."""
    import os
    import subprocess
    import sys

    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(dict(MEHLER_EIG, command="validate")))
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["FREDKIT_THREADS"] = "3"
    script = """if True:
        import os, sys
        before = dict(os.environ)
        import fredkit, fredkit.cli
        code = fredkit.cli.main(["-c", sys.argv[1], "--output", sys.argv[2]])
        assert code == 0, code
        changed = sorted(set(before.items()) ^ set(os.environ.items()))
        assert not changed, changed
        """
    proc = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "out.txt")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "out.txt").read_text()) == {"violations": []}
