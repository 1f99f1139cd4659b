"""Configuration schema validation and section builders."""

from __future__ import annotations

import copy
import json
from importlib import resources

import numpy as np
import pytest

from hiplab.config import load_config, parse_config, validate_document
from hiplab.errors import ConfigurationError
from hiplab.forward import SolverSettings
from hiplab.grids import SymTensorField
from hiplab.phantoms import materialize_scalar
from hiplab.synthesis import MODALITIES, MODALITY_PARAMETERS


def base_doc(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
        "coefficients": {"a": "1", "c": "0"},
        "modality": {"name": "elastography"},
        "study": {"type": "single"},
    }
    doc.update(copy.deepcopy(overrides))
    return doc


class TestSchema:
    def test_happy_path(self):
        cfg = parse_config(base_doc())
        assert cfg.dim == 2
        assert cfg.seed == 0
        assert cfg.study_type == "single"
        assert cfg.output is None
        assert cfg.recon_mode == "matrix"
        assert cfg.margin == 2

    def test_unknown_top_level_key(self):
        doc = base_doc()
        doc["gridd"] = {}
        with pytest.raises(ConfigurationError, match="Additional properties"):
            validate_document(doc)

    def test_unknown_nested_key_names_its_path(self):
        doc = base_doc()
        doc["grid"]["spacing"] = 0.1
        with pytest.raises(ConfigurationError, match="grid"):
            validate_document(doc)
        doc = base_doc()
        doc["solver"] = {"method": "direct", "threads": 4}
        with pytest.raises(ConfigurationError, match="solver"):
            validate_document(doc)

    def test_missing_required_section(self):
        doc = base_doc()
        del doc["modality"]
        with pytest.raises(ConfigurationError, match="modality"):
            validate_document(doc)

    def test_wrong_schema_version(self):
        doc = base_doc()
        doc["schema_version"] = 2
        with pytest.raises(ConfigurationError, match="schema_version"):
            validate_document(doc)

    def test_undersized_grid_rejected(self):
        doc = base_doc()
        doc["grid"]["shape"] = [4, 17]
        with pytest.raises(ConfigurationError):
            validate_document(doc)

    @pytest.mark.parametrize(
        "section, where",
        [
            ({"thresholds": {"basis": float("nan")}}, "thresholds/basis"),
            ({"noise": {"amplitude": float("nan")}}, "noise/amplitude"),
            ({"noise": {"amplitude": float("inf")}}, "noise/amplitude"),
            (
                {"noise": {"amplitude": 1e-6, "correlation_length": float("nan")}},
                "noise/correlation_length",
            ),
        ],
    )
    def test_non_finite_number_names_its_path(self, section, where):
        with pytest.raises(ConfigurationError, match=f"not finite \\(at {where}\\)"):
            parse_config(base_doc(**section))

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            parse_config([1, 2, 3])


class TestCrossFieldChecks:
    def test_bounds_shape_arity_mismatch(self):
        doc = base_doc()
        doc["grid"]["bounds"] = [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
        with pytest.raises(ConfigurationError, match="axes"):
            validate_document(doc)

    def test_degenerate_interval(self):
        doc = base_doc()
        doc["grid"]["bounds"] = [[0.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ConfigurationError, match="degenerate"):
            validate_document(doc)

    def test_matrix_diffusion_needs_triangle_count(self):
        doc = base_doc()
        doc["coefficients"]["a"] = ["1", "1", "0", "0"]
        with pytest.raises(ConfigurationError, match="3 component"):
            validate_document(doc)

    def test_drift_arity(self):
        doc = base_doc()
        doc["coefficients"]["b"] = ["0", "0", "0"]
        with pytest.raises(ConfigurationError, match="2 component"):
            validate_document(doc)

    def test_malformed_expression_fails_validation(self):
        doc = base_doc()
        doc["coefficients"]["c"] = "sin("
        with pytest.raises(ConfigurationError):
            validate_document(doc)


class TestModalityParameters:
    @pytest.mark.parametrize("name", ["qpat", "qtat"])
    def test_absorbing_modalities_need_gamma(self, name):
        doc = base_doc(modality={"name": name})
        with pytest.raises(ConfigurationError, match="gamma"):
            validate_document(doc)
        doc["modality"]["gamma"] = "1"
        validate_document(doc)

    def test_generic_needs_weight(self):
        doc = base_doc(modality={"name": "generic"})
        with pytest.raises(ConfigurationError, match="weight"):
            validate_document(doc)
        doc["modality"]["weight"] = "1"
        validate_document(doc)

    def test_weight_refused_outside_generic(self):
        doc = base_doc(modality={"name": "qpat", "gamma": "1", "weight": "1"})
        with pytest.raises(ConfigurationError, match="weight"):
            validate_document(doc)

    def test_schema_names_the_modality_table(self):
        text = resources.files("hiplab").joinpath("config_schema.json").read_text()
        schema = json.loads(text)["properties"]["modality"]["properties"]
        assert tuple(schema["name"]["enum"]) == MODALITIES
        assert set(schema) - {"name"} == {
            p for params in MODALITY_PARAMETERS.values() for p in params
        }

    def test_gamma_refused_where_meaningless(self):
        doc = base_doc(modality={"name": "elastography", "gamma": "1"})
        with pytest.raises(ConfigurationError, match="gamma"):
            validate_document(doc)
        doc = base_doc(modality={"name": "generic", "weight": "1", "gamma": "1"})
        with pytest.raises(ConfigurationError, match="gamma"):
            validate_document(doc)


class TestTracesSection:
    def test_count_and_expressions_conflict(self):
        doc = base_doc(traces={"count": 3, "expressions": ["1", "x", "y"]})
        with pytest.raises(ConfigurationError, match="not both"):
            validate_document(doc)

    @pytest.mark.parametrize("count", [2, 6])
    def test_count_outside_the_pool_refused(self, count):
        with pytest.raises(ConfigurationError, match="trace count must lie in"):
            validate_document(base_doc(traces={"count": count}))

    def test_omitted_section_builds_the_whole_pool(self):
        cfg = parse_config(base_doc())
        grid = cfg.grid_for()
        traces = cfg.traces(grid, cfg.coefficients(grid))
        assert len(traces) == 5

    def test_count_selects_a_prefix(self):
        cfg = parse_config(base_doc(traces={"count": 3}))
        grid = cfg.grid_for()
        assert len(cfg.traces(grid, cfg.coefficients(grid))) == 3

    def test_explicit_expressions(self):
        cfg = parse_config(base_doc(traces={"expressions": ["1", "x", "y"]}))
        grid = cfg.grid_for()
        traces = cfg.traces(grid, cfg.coefficients(grid))
        assert len(traces) == 3

    def test_corner_compatible_rewrites_traces(self):
        cfg = parse_config(
            base_doc(traces={"expressions": ["1", "x", "y"], "corner_compatible": True})
        )
        grid = cfg.grid_for()
        traces = cfg.traces(grid, cfg.coefficients(grid))
        assert len(traces) == 3


    @pytest.mark.parametrize(
        "dim, traces",
        [
            (2, {}),
            (3, {}),
            (2, {"corner_compatible": True}),
            (3, {"count": 6}),
            (2, {"expressions": ["1", "x", "y"], "corner_compatible": True}),
        ],
    )
    def test_trace_count_is_the_number_built(self, dim, traces):
        grid = {"bounds": [[0.0, 1.0]] * dim, "shape": [9] * dim}
        cfg = parse_config(base_doc(grid=grid, traces=traces))
        grid = cfg.grid_for()
        built = cfg.traces(grid, cfg.coefficients(grid))
        assert cfg.trace_expressions == [t.expression for t in built]


class TestStudySection:
    def test_convergence_needs_three_levels(self):
        doc = base_doc(study={"type": "convergence", "levels": [17, 33]})
        with pytest.raises(ConfigurationError, match="3 refinement"):
            validate_document(doc)
        doc["study"]["levels"] = [17, 33, 65]
        validate_document(doc)

    def test_levels_strictly_increasing(self):
        doc = base_doc(study={"type": "convergence", "levels": [33, 17, 65]})
        with pytest.raises(ConfigurationError, match="increasing"):
            validate_document(doc)
        doc["study"]["levels"] = [17, 17, 33]
        with pytest.raises(ConfigurationError, match="increasing"):
            validate_document(doc)

    def test_noise_sweep_needs_amplitudes_with_zero(self):
        doc = base_doc(
            study={"type": "noise-sweep", "amplitudes": [1e-4, 2e-4, 4e-4]},
            noise={"amplitude": 1e-4},
        )
        with pytest.raises(ConfigurationError, match="including 0"):
            validate_document(doc)
        doc["study"]["amplitudes"] = [0.0, 1e-4, 2e-4]
        validate_document(doc)

    def test_noise_sweep_needs_noise_section(self):
        doc = base_doc(study={"type": "noise-sweep", "amplitudes": [0.0, 1e-4, 2e-4]})
        with pytest.raises(ConfigurationError, match="noise section"):
            validate_document(doc)

    def test_study_parameters_must_match_type(self):
        doc = base_doc(study={"type": "single", "levels": [17, 33, 65]})
        with pytest.raises(ConfigurationError, match="levels"):
            validate_document(doc)
        doc = base_doc(study={"type": "convergence", "levels": [17, 33, 65], "amplitudes": [0.0, 1e-4, 2e-4]})
        with pytest.raises(ConfigurationError, match="amplitudes"):
            validate_document(doc)


class TestBuilders:
    def test_grid_for_levels(self):
        cfg = parse_config(base_doc())
        assert cfg.grid_for().shape == (17, 17)
        assert cfg.grid_for(65).shape == (65, 65)
        assert cfg.grid_for(65).bounds == ((0.0, 1.0), (0.0, 1.0))

    def test_scalar_diffusion_becomes_isotropic_tensor(self):
        cfg = parse_config(base_doc(coefficients={"a": "2"}))
        grid = cfg.grid_for()
        coeffs = cfg.coefficients(grid)
        expected = SymTensorField.identity(grid).values * 2.0
        assert np.array_equal(coeffs.a.values, expected)
        assert np.all(coeffs.b.values == 0.0)
        assert np.all(coeffs.c.values == 0.0)

    def test_matrix_diffusion_components(self):
        cfg = parse_config(
            base_doc(coefficients={"a": ["2", "0.5", "0"], "b": ["1", "0"], "c": "x"})
        )
        grid = cfg.grid_for()
        coeffs = cfg.coefficients(grid)
        assert np.all(coeffs.a.values[..., 0] == 2.0)
        assert np.all(coeffs.a.values[..., 1] == 0.5)
        assert np.all(coeffs.b.values[..., 0] == 1.0)
        x = grid.meshgrid()[0]
        assert np.array_equal(coeffs.c.values, x)

    @pytest.mark.parametrize(
        "modality",
        [
            {"name": "elastography"},
            {"name": "qpat", "gamma": "2"},
            {"name": "qtat", "gamma": "1"},
            {"name": "generic", "weight": "1 + x"},
        ],
    )
    def test_modality_builder(self, modality):
        cfg = parse_config(base_doc(modality=modality))
        grid = cfg.grid_for()
        built = cfg.modality(grid)
        assert built.name == modality["name"]
        for param in ("gamma", "weight"):
            if param in modality:
                expect = materialize_scalar(modality[param], grid).values
                assert np.array_equal(getattr(built, param).values, expect)
            else:
                assert getattr(built, param) is None

    def test_noise_defaults(self):
        cfg = parse_config(base_doc())
        assert cfg.noise() is None
        cfg = parse_config(base_doc(seed=7, noise={"amplitude": 1e-4}))
        spec = cfg.noise()
        assert spec.amplitude == 1e-4
        assert spec.correlation_length == 0.1
        assert spec.seed == 7  # the top-level seed is the noise seed

    def test_noise_overrides(self):
        cfg = parse_config(
            base_doc(seed=3, noise={"amplitude": 2e-3, "correlation_length": 0.05})
        )
        spec = cfg.noise()
        assert spec.correlation_length == 0.05
        assert spec.seed == 3

    def test_solver_settings(self):
        assert parse_config(base_doc()).solver() == SolverSettings()
        cfg = parse_config(base_doc(solver={"method": "direct"}))
        assert cfg.solver() == SolverSettings(method="direct")

    @pytest.mark.parametrize(
        "solver",
        [{"method": "iterative"}, {"tolerance": 1e-10}, {"max_iterations": 50}],
    )
    def test_removed_solver_options_are_rejected(self, solver):
        with pytest.raises(ConfigurationError) as exc:
            parse_config(base_doc(solver=solver))
        assert exc.value.exit_code == 2

    def test_thresholds_section_is_refused(self):
        # the audit's floors are constants of hiplab.admissibility
        assert "thresholds" not in json.loads(
            resources.files("hiplab").joinpath("config_schema.json").read_text()
        )["properties"]
        with pytest.raises(ConfigurationError, match="'thresholds'") as exc:
            parse_config(base_doc(thresholds={"basis": 1e-3}))
        assert exc.value.exit_code == 2

    def test_reconstruction_section(self):
        cfg = parse_config(base_doc(reconstruction={"mode": "scalar", "margin": 3}))
        assert cfg.recon_mode == "scalar"
        assert cfg.margin == 3


class TestLoadConfig:
    def test_round_trip_from_disk(self, tmp_path):
        path = tmp_path / "experiment.json"
        path.write_text(json.dumps(base_doc(seed=5)))
        cfg = load_config(str(path))
        assert cfg.seed == 5
        assert cfg.doc["grid"]["shape"] == [17, 17]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_config(str(path))

    def test_file_without_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        message = f"config {path} is not a JSON object"
        with pytest.raises(ConfigurationError, match=message):
            load_config(str(path))
