"""Config parsing, overrides, presets, and RunConfig materialization."""

import os
import pickle
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mef import (
    DEFAULTS,
    ConfigError,
    apply_overrides,
    attitude_error_angle,
    build_run_config,
    load_config_file,
    merge_with_defaults,
    parse_config_text,
)
from mef.config import (
    read_config_source,
    KEYS,
    NUMERIC_KEYS,
    _is_number,
    build_check_config,
    get_bool,
    get_float,
    get_int,
    get_vec3,
)


class TestParseConfigText:
    def test_parses_keys_comments_and_blanks(self):
        text = """
        # experiment setup
        seed = 7

        scenario.duration = 10.0  # short run
        noise.inject = true
        """
        out = parse_config_text(text)
        assert out == {
            "seed": "7",
            "scenario.duration": "10.0",
            "noise.inject": "true",
        }

    def test_empty_text_is_valid(self):
        assert parse_config_text("") == {}

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ConfigError, match=r"line 2: unknown key"):
            parse_config_text("seed = 1\nspeed = 9\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_empty_value_rejected(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("seed =\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_text("seed 3\n")

    def test_load_config_file_missing_path(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config_file(str(tmp_path / "nope.cfg"))

    def test_load_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "a.cfg"
        path.write_text("seed = 12\n")
        assert load_config_file(str(path)) == {"seed": "12"}


class TestReadConfigSource:
    def test_no_source_is_an_empty_run(self):
        assert read_config_source(None) == ({}, "run")

    @pytest.mark.parametrize("name", ["noisy", "noisy.cfg"])
    def test_bundled_name(self, name):
        raw, stem = read_config_source(name)
        assert stem == "noisy"
        assert raw["noise.inject"] == "true"

    def test_file_path(self, tmp_path):
        path = tmp_path / "mine.cfg"
        path.write_text("seed = 5\n")
        assert read_config_source(str(path)) == ({"seed": "5"}, "mine")

    def test_unreadable_path_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_source(str(tmp_path))

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="neither a file nor a bundled name"):
            read_config_source("no_such_config")

    def test_bare_name_is_not_shadowed_by_the_working_directory(self, tmp_path, monkeypatch):
        (tmp_path / "noisy").mkdir()
        (tmp_path / "noiseless").write_text("seed = 9\n")
        monkeypatch.chdir(tmp_path)
        raw, stem = read_config_source("noisy")
        assert (stem, raw["noise.inject"]) == ("noisy", "true")
        assert read_config_source("noiseless")[0]["seed"] == "0"
        # An explicit path still reads the entry in the working directory.
        assert read_config_source(os.path.join(".", "noiseless")) == ({"seed": "9"}, "noiseless")
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_source(os.path.join(".", "noisy"))


class TestOverridesAndMerge:
    def test_overrides_replace_and_add(self):
        base = {"seed": "1"}
        out = apply_overrides(base, ["seed=2", "scenario.duration = 5.0"])
        assert out == {"seed": "2", "scenario.duration": "5.0"}
        assert base == {"seed": "1"}

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            apply_overrides({}, ["seed:2"])

    def test_override_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides({}, ["sneed=2"])

    def test_override_rejects_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            apply_overrides({}, ["seed="])

    def test_merge_supplies_every_default(self):
        merged = merge_with_defaults({"seed": "42"})
        assert set(merged) == set(DEFAULTS)
        assert merged["seed"] == "42"
        assert merged["scenario.duration"] == DEFAULTS["scenario.duration"]

    def test_sweepable_keys_are_the_numeric_ones(self):
        assert NUMERIC_KEYS == {
            "seed",
            "scenario.duration",
            "scenario.sensor_dt",
            "observer.initial_error_rad",
            "observer.hessian_scale",
            "noise.gyro_sigma",
            "noise.vector_sigma",
            "filter.delta_step_cap",
            "filter.dt_max",
        }
        # The check.* keys are numbers too, but simulate reads none of them:
        # a sweep over one would repeat one run.
        assert NUMERIC_KEYS == {key for key in _NUMBER_KEYS if not key.startswith("check.")}
        assert list(DEFAULTS) == list(KEYS)


class TestValueGetters:
    def test_float_int_bool_vector(self):
        cfg = {"a": "2.5", "b": "7", "c": "on", "d": "1, 2,3"}
        assert get_float(cfg, "a") == 2.5
        assert get_int(cfg, "b") == 7
        assert get_bool(cfg, "c") is True
        np.testing.assert_array_equal(get_vec3(cfg, "d"), [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("value,expected", [
        ("true", True), ("1", True), ("yes", True), ("ON", True),
        ("false", False), ("0", False), ("no", False), ("off", False),
    ])
    def test_bool_spellings(self, value, expected):
        assert get_bool({"k": value}, "k") is expected

    def test_bad_values_raise_config_errors(self):
        with pytest.raises(ConfigError, match="expected a number"):
            get_float({"k": "fast"}, "k")
        with pytest.raises(ConfigError, match="expected an integer"):
            get_int({"k": "2.5"}, "k")
        with pytest.raises(ConfigError, match="expected a boolean"):
            get_bool({"k": "maybe"}, "k")
        with pytest.raises(ConfigError, match="3 comma-separated"):
            get_vec3({"k": "1,2"}, "k")
        with pytest.raises(ConfigError, match="expected numbers"):
            get_vec3({"k": "1,2,z"}, "k")


class TestSignalPresets:
    def test_canonical_body_rate(self):
        rc = build_run_config({})
        np.testing.assert_allclose(
            rc.scenario.omega_fn(0.0), [0.1, 0.0, 0.2], atol=1e-15
        )
        np.testing.assert_allclose(
            rc.scenario.omega_fn(5.0),
            [0.1 * np.cos(0.5), 0.0, 0.2],
            atol=1e-15,
        )

    def test_canonical_reference_is_unit(self):
        rc = build_run_config({})
        for t in np.linspace(0.0, 100.0, 17):
            z = rc.scenario.ref_fn(t)
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12
        np.testing.assert_allclose(rc.scenario.ref_fn(0.0), [0.0, 0.0, 1.0])

    def test_zero_body_rate_preset(self):
        rc = build_run_config({"scenario.omega": "zero"})
        np.testing.assert_array_equal(rc.scenario.omega_fn(3.7), np.zeros(3))

    def test_constant_signals(self):
        rc = build_run_config({
            "scenario.omega": "const:0.1,0,-0.2",
            "scenario.reference": "const:0,1,0",
        })
        np.testing.assert_allclose(rc.scenario.omega_fn(9.0), [0.1, 0.0, -0.2])
        np.testing.assert_allclose(rc.scenario.ref_fn(9.0), [0.0, 1.0, 0.0])

    def test_constant_reference_must_be_unit(self):
        with pytest.raises(ConfigError, match="unit length"):
            build_run_config({"scenario.reference": "const:0,0,2"})

    def test_zero_reference_preset_not_allowed(self):
        with pytest.raises(ConfigError, match="unknown signal"):
            build_run_config({"scenario.reference": "zero"})

    def test_unknown_signal_rejected(self):
        with pytest.raises(ConfigError, match="unknown signal"):
            build_run_config({"scenario.omega": "spiral"})

    def test_run_config_signals_are_picklable(self):
        rc = build_run_config({
            "scenario.omega": "const:0.1,0,-0.2",
            "scenario.reference": "canonical",
        })
        clone = pickle.loads(pickle.dumps(rc))
        np.testing.assert_array_equal(
            clone.scenario.omega_fn(1.0), rc.scenario.omega_fn(1.0)
        )


class TestBuildRunConfig:
    def test_defaults_materialize(self):
        rc = build_run_config({})
        assert rc.noise is None
        assert rc.scenario.duration == 100.0
        assert rc.scenario.sensor_dt == 0.1
        assert rc.initial_hessian_scale == 1.0
        assert rc.filter.delta_step_cap == 0.01
        assert rc.filter.dt_max == 0.1
        np.testing.assert_array_equal(
            rc.initial_estimate.as_vector(), rc.scenario.q0.as_vector()
        )

    def test_initial_error_rotates_estimate(self):
        angle = 0.99 * np.pi
        rc = build_run_config({
            "observer.initial_error_rad": repr(angle),
            "observer.initial_error_axis": "1,0,0",
        })
        assert attitude_error_angle(
            rc.scenario.q0, rc.initial_estimate
        ) == pytest.approx(angle, abs=1e-12)

    def test_error_axis_is_normalized(self):
        rc_a = build_run_config({
            "observer.initial_error_rad": "0.5",
            "observer.initial_error_axis": "0,0,1",
        })
        rc_b = build_run_config({
            "observer.initial_error_rad": "0.5",
            "observer.initial_error_axis": "0,0,4",
        })
        np.testing.assert_allclose(
            rc_a.initial_estimate.as_vector(),
            rc_b.initial_estimate.as_vector(),
            atol=1e-15,
        )

    def test_zero_error_axis_rejected(self):
        with pytest.raises(ConfigError, match="axis must be nonzero"):
            build_run_config({
                "observer.initial_error_rad": "0.5",
                "observer.initial_error_axis": "0,0,0",
            })

    def test_non_unit_initial_attitude_rejected(self):
        with pytest.raises(ConfigError):
            build_run_config({"scenario.q0": "1,1,0,0"})

    def test_duration_must_tile_into_epochs(self):
        with pytest.raises(ConfigError, match="integer number"):
            build_run_config({"scenario.duration": "0.25"})

    def test_noise_injection_gated_by_flag(self):
        quiet = build_run_config({"noise.inject": "false"})
        loud = build_run_config({"noise.inject": "true", "seed": "11"})
        assert quiet.noise is None
        assert loud.noise is loud.gains
        assert loud.noise.seed == 11

    def test_sigma_wiring(self):
        rc = build_run_config({
            "noise.gyro_sigma": "0.02",
            "noise.vector_sigma": "0.5",
        })
        assert rc.gains.gyro_var == 0.02 ** 2
        assert rc.gains.vector_var == 0.25

    def test_filter_parameters_forwarded(self):
        rc = build_run_config({
            "filter.delta_step_cap": "0.002",
            "filter.dt_max": "0.05",
        })
        assert rc.filter.delta_step_cap == 0.002
        assert rc.filter.dt_max == 0.05

    def test_malformed_numbers_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="expected a number"):
            build_run_config({"filter.dt_max": "big"})
        with pytest.raises(ConfigError, match="4 comma-separated"):
            build_run_config({"scenario.q0": "1,0,0"})

    def test_out_of_range_filter_values_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="dt_max"):
            build_run_config({"filter.dt_max": "0"})

    @pytest.mark.parametrize("dt_max", ["1e-12", "1e-13", "1e-300"])
    def test_dt_max_at_or_below_the_time_snap_is_a_config_error(self, dt_max):
        with pytest.raises(ConfigError, match=r"^filter\.dt_max must exceed TIME_SNAP"):
            build_run_config({"filter.dt_max": dt_max})

    @pytest.mark.parametrize("seed", ["-1", "-20"])
    def test_negative_seed_is_a_config_error(self, seed):
        # With or without injected noise: the seed is checked before the
        # noise model draws from it.
        for inject in ("true", "false"):
            with pytest.raises(ConfigError, match=f"^seed: {seed} is negative"):
                build_run_config({"seed": seed, "noise.inject": inject})

    def test_gyro_sigma_must_be_positive(self):
        # The velocity gain inverts the gyro variance.
        with pytest.raises(ConfigError, match="noise.gyro_sigma must be positive"):
            build_run_config({"noise.gyro_sigma": "0"})


class TestBuildCheckConfig:
    def test_check_keys_replace_the_run_keys(self):
        rc = build_check_config({
            "check.duration": "0.5",
            "check.sensor_dt": "0.05",
            "check.hessian_scale": "7.0",
            "check.gyro_sigma_true": "0.1",
            "check.vector_sigma_true": "0.2",
            "observer.initial_error_rad": "1.0",
            "noise.gyro_sigma": "0.3",
            "seed": "4",
        }, 2e-3)
        assert rc.scenario.duration == 0.5
        assert rc.scenario.sensor_dt == 0.05
        assert rc.initial_hessian_scale == 7.0
        np.testing.assert_array_equal(
            rc.initial_estimate.as_vector(), rc.scenario.q0.as_vector()
        )
        assert rc.filter.dt_max == 2e-3
        assert rc.filter.delta_step_cap == 1e18
        assert rc.noise.gyro_var == 0.1 ** 2
        assert rc.noise.vector_var == 0.2 ** 2
        assert rc.gains.gyro_var == 0.3 ** 2
        assert rc.noise.seed == rc.gains.seed == 4

    def test_dt_defaults_to_the_check_dt_key(self):
        assert build_check_config({"check.dt": "5e-3"}).filter.dt_max == 5e-3

    @pytest.mark.parametrize("dt", [1e-12, 1e-13, 1e-300])
    def test_dt_at_or_below_the_time_snap_is_a_config_error(self, dt):
        with pytest.raises(ConfigError, match=r"^--dt \(check\.dt\) .*must exceed TIME_SNAP"):
            build_check_config({}, dt)
        with pytest.raises(ConfigError, match=r"^--dt \(check\.dt\) .*must exceed TIME_SNAP"):
            build_check_config({"check.dt": repr(dt)})

    def test_negative_seed_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^seed: -1 is negative"):
            build_check_config({"seed": "-1"}, 1e-3)

    def test_zero_injected_noise_is_legal(self):
        rc = build_check_config({"check.gyro_sigma_true": "0"}, 1e-3)
        assert rc.noise.gyro_var == 0.0

    @pytest.mark.parametrize("dt", [0.0, -1e-3, float("nan"), float("inf")])
    def test_dt_must_be_positive_and_finite(self, dt):
        with pytest.raises(ConfigError, match="--dt"):
            build_check_config({}, dt)

    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigError, match="check.duration"):
            build_check_config({"check.duration": "0"}, 1e-3)


class TestBundledPresets:
    @pytest.mark.parametrize("name", ["noiseless.cfg", "noisy.cfg"])
    def test_bundled_configs_parse_and_build(self, name):
        text = resources.files("mef").joinpath("configs", name).read_text()
        raw = parse_config_text(text)
        rc = build_run_config(raw)
        assert rc.scenario.duration == 100.0
        assert rc.initial_hessian_scale == 1.0
        assert attitude_error_angle(
            rc.scenario.q0, rc.initial_estimate
        ) == pytest.approx(0.99 * np.pi, abs=1e-12)
        assert (rc.noise is not None) == (name == "noisy.cfg")


# Config text as a user would write it: values are non-empty, carry no
# comment marker or line break, and have no surrounding blanks (the parser
# strips those).
_values = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="#"),
    min_size=1,
    max_size=12,
).filter(lambda v: v.strip() == v)
_configs = st.dictionaries(st.sampled_from(sorted(KEYS)), _values, max_size=8)
_blanks = st.text(alphabet=" \t", max_size=3)
_comments = st.one_of(
    st.just(""),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=10).map(
        lambda c: "#" + c
    ),
)
_unknown_keys = st.from_regex(r"[a-z_]{1,8}(\.[a-z_]{1,8})?", fullmatch=True).filter(
    lambda k: k not in KEYS
)
_non_finite = st.sampled_from(["nan", "NaN", "inf", "-inf", "+Infinity", "1e999"])
# Every key whose default is a number, the check.* keys included.
_NUMBER_KEYS = sorted(key for key, default in DEFAULTS.items() if _is_number(default))


@st.composite
def _rendered(draw, cfg: dict[str, str]) -> str:
    """cfg as config text, with random blanks, comments and blank lines."""
    lines = []
    for key, value in cfg.items():
        lines += draw(st.lists(st.tuples(_blanks, _comments).map("".join), max_size=2))
        lines.append(
            f"{draw(_blanks)}{key}{draw(_blanks)}={draw(_blanks)}{value}"
            f"{draw(_blanks)}{draw(_comments)}"
        )
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


class TestRoundTripProperties:
    @given(data=st.data(), cfg=_configs)
    def test_rendered_text_parses_back(self, data, cfg):
        assert parse_config_text(data.draw(_rendered(cfg))) == cfg

    @given(cfg=_configs, blanks=st.tuples(_blanks, _blanks))
    def test_overrides_agree_with_file_lines(self, cfg, blanks):
        left, right = blanks
        items = [f"{key}{left}={right}{value}" for key, value in cfg.items()]
        text = "\n".join(f"{key} = {value}" for key, value in cfg.items())
        assert apply_overrides({}, items) == parse_config_text(text) == cfg

    @given(data=st.data(), cfg=_configs, key=_unknown_keys, value=_values)
    def test_unknown_keys_raise(self, data, cfg, key, value):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text(data.draw(_rendered(cfg)) + f"\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(cfg, [f"{key}={value}"])

    @given(data=st.data(), cfg=_configs.filter(bool), value=_values)
    def test_duplicate_keys_raise(self, data, cfg, value):
        key = data.draw(st.sampled_from(sorted(cfg)))
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config_text(data.draw(_rendered(cfg)) + f"\n{key} = {value}\n")

    @given(
        key=st.sampled_from(_NUMBER_KEYS),
        x=st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_numeric_keys_accept_finite_float_text(self, key, x):
        assert get_float({key: repr(x)}, key) == x

    @given(key=st.sampled_from(_NUMBER_KEYS), text=_non_finite)
    def test_numeric_keys_reject_non_finite_text(self, key, text):
        # Every numeric key is read by one of the two builders; each must
        # stop a non-finite value at the config boundary.
        build = build_check_config if key.startswith("check.") else build_run_config
        with pytest.raises(ConfigError, match="finite|integer"):
            build({key: text})
