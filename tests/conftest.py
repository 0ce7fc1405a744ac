"""Fixtures shared by the test modules."""

import pytest

import latent_brrr.gibbs as gibbs


def _corrupted_delta_step(state, data, config, streams, shared):
    # Fault injection: the shape parameter forgets the Omega entries while
    # the rate keeps them, a realistic wrong-shape bug.
    quads, _ = gibbs._delta_quads(state, data, config, shared)
    wrong_count = state.Gamma.shape[-1] + state.Psi.shape[-2]
    state.delta = gibbs._draw_mgp_delta(state.delta, quads, wrong_count,
                                        config.a1, config.a2, streams)


@pytest.fixture
def corrupted_delta_step():
    """A wrong-shape delta update with the sweep's signature. A test injects
    it by replacing ``gibbs.update_delta`` around the run it corrupts."""
    return _corrupted_delta_step
