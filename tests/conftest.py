"""Hypothesis profiles and the shared gradient-ratio fixture.

``ci`` draws the same examples on every run and prints the blob that
replays a failure, so a fuzz failure in a CI log can be reproduced; select
it with ``--hypothesis-profile=ci``.  Without that option Hypothesis keeps
its default profile.
"""

import numpy as np
import pytest
from hypothesis import settings

from orthojac.train import Network, make_input_adapter

settings.register_profile("ci", derandomize=True, print_blob=True)


@pytest.fixture
def backward_ratios():
    """``ratios(layers, X, V)``: per row, ``||cot_in|| / ||cot_out||`` of the VJP
    chain ``train`` runs, ``Network.backward_batch`` through ``layers`` from the
    cotangents ``V`` at the inputs ``X``.  The input adapter and head are
    identities, so ``cot_out`` is ``V``; no row is filtered by a kink margin."""

    def ratios(layers, X, V):
        n = layers[0].width
        net = Network(make_input_adapter(n, n), layers, np.eye(n), np.zeros(n))
        _, stack_out, cache = net.forward_cache(X)
        _, cot_in, cot_out = net.backward_batch(cache, stack_out, V)
        return np.linalg.norm(cot_in, axis=1) / np.linalg.norm(cot_out, axis=1)

    return ratios
