import numpy as np

from spikesev.gradcheck import relative_error, run_gradient_checks, tiny_model
from spikesev.layers import LAYER_KINDS


def test_tiny_model_contains_one_of_each_layer_type():
    # every registered layer kind must go through the finite-difference check
    net = tiny_model()
    assert {s.kind for s in net.specs} == set(LAYER_KINDS)
    assert net.input_length == 32
    assert net.dtype == np.float64


def test_composed_model_gradients_within_tolerance():
    results, passed = run_gradient_checks()
    assert passed
    assert len(results) == 9  # conv w/b, lstm w/u/b, two dense w/b
    for r in results:
        assert r.rel_error < 1e-4, f"{r.tensor}: {r.rel_error}"


def test_deterministic_given_seed():
    a, _ = run_gradient_checks(seed=7)
    b, _ = run_gradient_checks(seed=7)
    assert [(r.tensor, r.rel_error) for r in a] == [(r.tensor, r.rel_error) for r in b]


def test_relative_error_definition():
    a = np.array([1.0, 2.0])
    assert relative_error(a, a) == 0.0
    assert relative_error(a, np.zeros(2)) == 1.0
    assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
