"""Property tests: CSV matrices and samples.bin round-trip bit for bit."""

import dataclasses
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import latent_brrr.io as lio
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
