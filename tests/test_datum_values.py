"""Twisted root data and their involutions are values: two loads of one
datum compare and hash equal, so an involution built on one load is on the
other too, and caches keyed on a datum are shared by both."""

from dlcusp.rootdata import (
    InvolutionOnDatum,
    datum_involutions,
    load_datum,
    phi_theta,
    with_twist,
)


def test_two_loads_compare_and_hash_equal():
    a, b = load_datum("gl2xgl2_swap"), load_datum("gl2xgl2_swap")
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b)
    assert len({a, b}) == 1


def test_data_that_differ_in_a_field_are_unequal():
    a = load_datum("gl2xgl2_swap")
    assert a != load_datum("gl2xgl2_elliptic")
    # the same roots and twist under another name
    renamed = with_twist(a, a.tau)
    assert renamed.tau == a.tau and renamed.name != a.name
    assert renamed != a
    assert a != a.tau


def test_involutions_compare_by_datum_matrix_and_name():
    a, b = load_datum("gl2xgl2_swap"), load_datum("gl2xgl2_swap")
    on_a, on_b = datum_involutions(a), datum_involutions(b)
    assert on_a == on_b
    assert {hash(th) for th in on_a.values()} == {hash(th) for th in on_b.values()}
    first, second = sorted(on_a)[:2]
    assert on_a[first] != on_a[second]


def test_phi_theta_accepts_an_involution_built_on_another_load():
    a, b = load_datum("gl2xgl2_swap"), load_datum("gl2xgl2_swap")
    for name, theta in datum_involutions(a).items():
        assert phi_theta(b, theta) == phi_theta(a, theta)
        assert phi_theta(b, theta) == datum_involutions(b)[name].phi_theta


def test_involution_phi_theta_is_computed_once(monkeypatch):
    theta = next(iter(datum_involutions(load_datum("gl2xgl2_swap")).values()))
    calls = []
    apply = InvolutionOnDatum.apply
    monkeypatch.setattr(
        InvolutionOnDatum, "apply", lambda self, v: calls.append(v) or apply(self, v)
    )
    first = theta.phi_theta
    assert calls
    seen = len(calls)
    assert theta.phi_theta is first
    assert phi_theta(load_datum("gl2xgl2_swap"), theta) is first
    assert len(calls) == seen
