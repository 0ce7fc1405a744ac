"""Property tests: CSV matrices are written byte for byte as
np.savetxt(fmt="%.17g") writes them and read bit for bit as np.loadtxt reads
them; CSV matrices, samples.bin and the posterior summary's theta_mean
round-trip bit for bit; config and CV-plan JSON parse to a value or a
ConfigurationError."""

import dataclasses
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import latent_brrr.cli as cli
import latent_brrr.io as lio
from latent_brrr import g17
from latent_brrr.errors import ConfigurationError
from latent_brrr.model import ModelConfig, ModelState, PosteriorSamples, Variant

# Finite doubles, with the edges written out: -0.0, subnormals, 1e+-8, 1e+-300.
EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-8, -1e8, 1e-300,
         -1e300, 1.7976931348623157e308, 0.1 + 0.2]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGES),
                   st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10),
                             st.sampled_from([-300, -8, 0, 8, 300])))


MATRICES = st.tuples(st.integers(1, 6), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=FINITE))


def same_bits(a, b):
    """Equal shape and dtype, and equal bit patterns (so -0.0 differs from 0.0)."""
    return (a.shape == b.shape and a.dtype == b.dtype
            and np.array_equal(a.view(np.int64), b.view(np.int64)))


@settings(max_examples=200, deadline=None)
@given(matrix=MATRICES)
@example(matrix=np.array([[-0.0]]))
@example(matrix=np.array([[5e-324, -1e-300, 1e300, 1e-8, -1e8]]))
@example(matrix=np.array([[2.2250738585072009e-308], [-0.0], [1e8]]))
def test_matrix_csv_round_trips_bit_for_bit(matrix):
    names = [f"col{j}" for j in range(matrix.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        lio.write_matrix_csv(path, matrix, names)
        back, got_names = lio.read_matrix_csv(path)
    assert got_names == names
    assert same_bits(back, matrix)


def savetxt_bytes(path, matrix, names):
    """The bytes np.savetxt(fmt="%.17g") writes: the reference for write_matrix_csv."""
    np.savetxt(path, matrix, fmt="%.17g", delimiter=",", newline="\n",
               header=",".join(names), comments="", encoding="utf-8")
    return path.read_bytes()


def first_difference(got: bytes, want: bytes):
    """The first differing (line number, got, want), or None."""
    if got == want:
        return None
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            return i, a, b
    return min(len(got_lines), len(want_lines)), b"<end>", b"<end>"


def same_csv_bytes_as_savetxt(matrix):
    names = [f"c{j}" for j in range(matrix.shape[1])]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        lio.write_matrix_csv(path, matrix, names)
        got = path.read_bytes()
        want = savetxt_bytes(Path(tmp) / "reference.csv", matrix, names)
    return first_difference(got, want)


# The ends of the writer's fast range (the doubles nearest 1e-10 and 1e17),
# powers of ten and their neighbours one ulp away, and exact ties at the
# 17th significant digit, which round half to even.
POW10 = 10.0 ** np.arange(-12, 19)
BOUNDARIES = [1e-10, np.nextafter(1e-10, 0), 1e17, np.nextafter(1e17, 0),
              *POW10, *np.nextafter(POW10, 0), *np.nextafter(POW10, np.inf)]
TIES = [1234567890123456.75, 1234567890123457.25, -1234567890123456.75, 2.0**-25]
ANY_VALUE = st.one_of(FINITE, st.sampled_from([np.nan, np.inf, -np.inf, *BOUNDARIES, *TIES]))
ANY_MATRICES = st.tuples(st.integers(0, 6), st.integers(1, 5)).flatmap(
    lambda shape: arrays(np.float64, shape, elements=ANY_VALUE))


@settings(max_examples=300, deadline=None)
@given(matrix=ANY_MATRICES)
@example(matrix=np.array([[1e-10, np.nextafter(1e-10, 0), 1e17, np.nextafter(1e17, 0)]]))
@example(matrix=np.array(BOUNDARIES).reshape(-1, 1))
@example(matrix=np.array([TIES]))
@example(matrix=np.array([[np.nan, np.inf, -np.inf, -0.0, 0.0]]))
@example(matrix=np.zeros((0, 3)))
@example(matrix=np.zeros((4, 0)))
@example(matrix=np.linspace(-3.0, 3.0, 2 * 4096 + 3).reshape(1, -1))
def test_matrix_csv_bytes_equal_savetxt(matrix):
    assert same_csv_bytes_as_savetxt(matrix) is None


def test_matrix_csv_bytes_equal_savetxt_at_every_decimal_exponent():
    # 1000 values at each decimal exponent from -324 to 308, 400k more inside
    # the fast range, and 100k random bit patterns (nan, inf and subnormals
    # among them), in rows of 50 columns.
    rng = np.random.default_rng(20)
    exponent = np.concatenate([np.repeat(np.arange(-324, 309), 1000),
                               rng.integers(-10, 17, 400_000)])
    scale = np.maximum(exponent, -300)
    with np.errstate(over="ignore"):     # past the largest double: inf
        values = rng.uniform(1, 10, exponent.size) * 10.0 ** scale * 10.0 ** (exponent - scale)
    values *= rng.choice([-1.0, 1.0], values.size)
    bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64, endpoint=False)
    values = np.concatenate([values, bits.view(np.float64)])
    assert values.size >= 1_000_000
    assert same_csv_bytes_as_savetxt(values.reshape(-1, 50)) is None


# ---------------------------------------------------------------------------
# reading CSV text: g17.read_rows against np.loadtxt


def loadtxt_rows(path):
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def read_rows(path):
    with open(path, "rb") as fh:
        return g17.read_rows(fh, len(fh.readline().split(b",")))


def reads_as_loadtxt(path):
    """read_rows takes the file (no fallback) and returns loadtxt's bits."""
    got = read_rows(path)
    return got is not None and same_bits(got, loadtxt_rows(path))


@settings(max_examples=200, deadline=None)
@given(matrix=MATRICES)
@example(matrix=np.array([[5e-324, -1e-300, 1e300, 1e-8, -1e8, 1.7976931348623157e308]]))
@example(matrix=np.array([[-0.0], [0.0], [2.2250738585072009e-308]]))
def test_reader_equals_loadtxt_on_every_written_matrix(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        lio.write_matrix_csv(path, matrix)
        assert reads_as_loadtxt(path)


HAND_WRITTEN = ["+1", ".5", "-.5", "1.", "1E5", "1e+005", "-0", "+0", "00012.5000",
                "-0.099232985977641519", "4.8291949257150968e-05", "1e-0300", "5E+300",
                "1234567890123456789", "-9999999999999999999", "0.1234567890123456789",
                "12345678901234567890", "98765432109876543210", "-1844674407370955.1615e4",
                "1.000000000000000000000000000001", "000000000000000000000000000000.25"]


@pytest.mark.parametrize("final_newline", [True, False])
def test_reader_equals_loadtxt_on_hand_written_forms(tmp_path, final_newline):
    # Each form alone on a row and between two others, the 20-digit
    # mantissas past 2^64 and the 30-digit ones past a 24-byte window.
    lines = [f"{token},{token},0.5" for token in HAND_WRITTEN] + ["7,-.5,1.5e1"]
    path = tmp_path / "hand.csv"
    path.write_text("a,b,c\n" + "\n".join(lines) + ("\n" if final_newline else ""))
    assert reads_as_loadtxt(path)


# A tie between two doubles, which rounds to the even one, and decimals a
# few units of 10^-30 either side of ties: the smallest subnormal's half,
# the largest double's upper half-gap (at which a value overflows to inf).
MIDPOINTS = ["9007199254740993", "9007199254740993.000000000001", "9007199254740992.999999999999",
             "9007199254740995", "2.4703282292062328e-324", "2.4703282292062327e-324",
             "1.7976931348623158e308", "1.7976931348623159e308",
             "1.00000000000000011102230246251565404", "1.00000000000000011102230246251565405",
             "0.30000000000000001665334536937734810", "0.30000000000000001665334536937734811"]


@pytest.mark.parametrize("token", MIDPOINTS)
def test_reader_rounds_tokens_at_and_next_to_midpoints_as_float(tmp_path, token):
    path = tmp_path / "mid.csv"
    path.write_text(f"a,b\n{token},-{token}\n")
    got = read_rows(path)
    assert got is not None
    assert same_bits(got, np.array([[float(token), -float(token)]]))
    assert same_bits(got, loadtxt_rows(path))


@settings(max_examples=50, deadline=None)
@given(matrix=MATRICES, block=st.integers(1, 64))
@example(matrix=np.linspace(-3.0, 3.0, 300).reshape(2, 150), block=37)
def test_reader_equals_loadtxt_with_values_straddling_blocks(matrix, block):
    # Blocks of a few dozen bytes: values and lines cross block ends, and a
    # line longer than the buffer makes it grow.
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        path = Path(tmp) / "m.csv"
        lio.write_matrix_csv(path, matrix)
        patch.setattr(g17, "_READ_BYTES", block)
        assert reads_as_loadtxt(path)


def test_read_matrix_csv_calls_loadtxt_only_outside_the_fast_grammar(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt called")

    matrix = np.random.default_rng(24).standard_normal((30, 7)) * 10.0 ** np.arange(-3, 4)
    lio.write_matrix_csv(tmp_path / "m.csv", matrix)
    (tmp_path / "odd.csv").write_bytes(b"a,b\n1, 2\n")
    monkeypatch.setattr(np, "loadtxt", refuse)
    assert same_bits(lio.read_matrix_csv(tmp_path / "m.csv")[0], matrix)
    with pytest.raises(AssertionError, match="np.loadtxt called"):
        lio.read_matrix_csv(tmp_path / "odd.csv")


@settings(max_examples=200, deadline=None)
@given(matrix=MATRICES)
@example(matrix=np.array([[-0.0, 5e-324], [1e300, -1e-300]]))
@example(matrix=np.array([[2.2250738585072009e-308, -5e-324, 1.7976931348623157e308]]))
def test_posterior_summary_theta_round_trips_bit_for_bit(matrix):
    # fit writes theta_mean as nested lists through write_json; predict reads
    # it back with _read_theta.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "posterior_summary.json"
        lio.write_json(path, {"theta_mean": matrix.tolist(), "n_retained": 1})
        back = cli._read_theta(path)
    assert same_bits(back, matrix)


@st.composite
def posterior_samples(draw, variant):
    n_states, N, P, K = (draw(st.integers(1, n)) for n in (3, 5, 4, 4))
    S1, S2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def block(*shape):
        return draw(arrays(np.float64, shape, elements=FINITE))

    states = []
    for _ in range(n_states):
        noise = {}
        if variant is Variant.LATENT_NOISE:
            noise = {"Omega": block(N, S1)}
        elif variant is Variant.INDEPENDENT_NOISE:
            noise = {"H": block(N, S2), "Lambda": block(S2, K), "phi_lambda": block(S2, K),
                     "delta_noise": block(S2)}
        states.append(ModelState(Psi=block(P, S1), Gamma=block(S1, K), phi_gamma=block(S1, K),
                                 delta=block(S1), sigma_sq=block(K), **noise))
    extra = {Variant.LATENT_NOISE: {"sigma_omega_sq": 1.0},
             Variant.INDEPENDENT_NOISE: {"noise_rank": S2}}.get(variant, {})
    config = ModelConfig(variant=variant, rank=S1, **extra)
    return PosteriorSamples(states=tuple(states), theta_mean=np.zeros((P, K)), config=config)


def check_samples_layout(raw, samples, variant):
    """Parse the file as the io module docstring lays it out, without the io module."""
    first = samples.states[0]
    (P, S1), K = first.Psi.shape, first.Gamma.shape[1]
    order = ["Psi", "Gamma", "phi_gamma", "delta", "sigma_sq"]
    n_rows = S2 = 0
    if variant is Variant.LATENT_NOISE:
        order.append("Omega")
        n_rows = first.Omega.shape[0]
    elif variant is Variant.INDEPENDENT_NOISE:
        order += ["H", "Lambda", "phi_lambda", "delta_noise"]
        n_rows, S2 = first.H.shape
    assert raw[:8] == b"LBRRRST1"
    assert struct.unpack_from("<II", raw, 8) == (1, 0)
    assert struct.unpack_from("<6Q", raw, 16) == (len(samples.states), n_rows, P, K, S1, S2)
    offset = 64
    for state in samples.states:
        for name in order:
            want = getattr(state, name)
            got = np.frombuffer(raw, dtype="<f8", count=want.size, offset=offset)
            assert same_bits(got.astype(np.float64).reshape(want.shape), want), name
            offset += 8 * want.size
    assert offset == len(raw)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       variant=st.sampled_from([Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                Variant.NO_NOISE]))
def test_samples_bin_round_trips_every_field(data, variant):
    samples = data.draw(posterior_samples(variant))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.bin"
        lio.write_samples(path, samples)
        states = lio.read_samples(path)
        raw = path.read_bytes()
    assert len(states) == len(samples.states)
    check_samples_layout(raw, samples, variant)
    for got, want in zip(states, samples.states):
        for field in dataclasses.fields(ModelState):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if b is None:
                assert a is None, field.name
            else:
                assert same_bits(a, b), field.name


@pytest.mark.parametrize("edit", [
    lambda raw: raw[:40],            # the header cut short
    lambda raw: raw[:-8],            # the last state short of one value
    lambda raw: raw[:64],            # the header alone, with states declared
    lambda raw: raw + b"\0" * 8,    # one trailing value
    lambda raw: raw + b"\0",        # one trailing byte
], ids=["truncated-header", "truncated-body", "no-body", "trailing-value", "trailing-byte"])
@settings(max_examples=10, deadline=None)
@given(data=st.data(),
       variant=st.sampled_from([Variant.LATENT_NOISE, Variant.INDEPENDENT_NOISE,
                                Variant.NO_NOISE]))
def test_samples_bin_of_the_wrong_length_is_rejected(edit, data, variant):
    samples = data.draw(posterior_samples(variant))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "samples.bin"
        lio.write_samples(path, samples)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(ConfigurationError, match="samples.bin"):
            lio.read_samples(path)


# ---------------------------------------------------------------------------
# model config and CV plan JSON

POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
# Every value json.loads can return, NaN and Infinity included.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                               max_size=3),
    max_leaves=6)


@st.composite
def model_configs(draw):
    variant = draw(st.sampled_from(Variant))
    iterations = draw(st.integers(1, 10**6))
    fields = dict(variant=variant, rank=draw(st.integers(1, 100)),
                  a1=draw(st.floats(2.0, 1e300, exclude_min=True)),
                  a2=draw(st.floats(3.0, 1e300, exclude_min=True)),
                  nu=draw(st.floats(2.0, 1e300, exclude_min=True)),
                  a_sigma=draw(POSITIVE), b_sigma=draw(POSITIVE), iterations=iterations,
                  burn_in=draw(st.integers(0, iterations - 1)), thin=draw(st.integers(1, 10**6)),
                  seed=draw(st.integers(0, 2**64 - 1)),
                  psi_update=draw(st.sampled_from(["fast", "naive"])))
    if variant is Variant.LATENT_NOISE and draw(st.booleans()):
        fields["latent_snr"] = draw(POSITIVE)
    elif variant is Variant.LATENT_NOISE:
        fields["sigma_omega_sq"] = draw(st.floats(0.0, 1e300))
    elif variant is Variant.INDEPENDENT_NOISE:
        fields["noise_rank"] = draw(st.integers(1, 100))
    return ModelConfig(**fields)


@settings(max_examples=200, deadline=None)
@given(config=model_configs())
def test_model_config_round_trips_through_json(config):
    text = json.dumps(lio.model_config_to_dict(config))
    assert lio.model_config_from_dict(json.loads(text)) == config


@settings(max_examples=300, deadline=None)
@given(config=model_configs(),
       field=st.sampled_from([f.name for f in dataclasses.fields(ModelConfig)]),
       value=JSON_VALUES)
@example(config=ModelConfig(sigma_omega_sq=1.0), field="rank", value="3")
@example(config=ModelConfig(sigma_omega_sq=1.0), field="iterations", value=20.5)
def test_model_config_field_of_any_json_value_parses_or_is_rejected(config, field, value):
    data = lio.model_config_to_dict(config)
    data[field] = value
    try:
        lio.model_config_from_dict(data)
    except ConfigurationError:
        pass


PLAN_FIELDS = {
    "beta_grid": st.lists(POSITIVE, min_size=1, max_size=4),
    "rank_grid": st.lists(st.integers(1, 100), min_size=1, max_size=4),
    "n_folds": st.integers(2, 10**6),
    "seed": st.integers(0, 2**64 - 1),
}


@settings(max_examples=300, deadline=None)
@given(plan=st.fixed_dictionaries(PLAN_FIELDS), field=st.sampled_from(sorted(PLAN_FIELDS)),
       value=JSON_VALUES)
@example(plan={"beta_grid": [0.1], "rank_grid": [2], "n_folds": 2, "seed": 0},
         field="beta_grid", value="0.1")
def test_cv_plan_field_of_any_json_value_parses_or_is_rejected(plan, field, value):
    plan[field] = value
    try:
        lio.cv_plan_from_dict(plan)
    except ConfigurationError:
        pass


@pytest.mark.parametrize("value", [[1, 2], "config", 3, None])
def test_config_and_plan_must_be_json_objects(value):
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        lio.model_config_from_dict(value)
    with pytest.raises(ConfigurationError, match="must be a JSON object"):
        lio.cv_plan_from_dict(value)
