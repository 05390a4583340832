"""Extended data: node-0 rules, tier identities, the two gradings."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from smt_kit import cartan as C, criteria, extend as X, linalg
from smt_kit.involutions import AmbientCase
from smt_kit.weyl import tau_hat

import cartan_reference as CR


def lab(s):
    return C.FinTypeLabel.parse(s)


# the implemented families (flip-sl, flip-sp, flip-so-odd, sym-quadrics) at a few parameters
AMBIENT_CASES = ("flip-sl2", "flip-sl3", "flip-sl4", "flip-sp4", "flip-sp6", "flip-so-odd5",
                 "flip-so-odd7", "sym-quadrics2", "sym-quadrics3", "sym-quadrics5")


def _assert_attach_rule(datum, scale):
    """Node 0 attached to the base by eps: row 0 is -scale <eps, alpha_j^vee>,
    column 0 is -1 where that pairing is nonzero, else 0."""
    n, ext = datum.base.n, datum.extended.entries
    assert ext[0][0] == 2
    assert all(ext[i + 1][j + 1] == datum.base.entries[i][j] for i in range(n) for j in range(n))
    for j, pairing in enumerate(datum.epsilon.coords):
        assert ext[0][j + 1] == -scale * pairing
        assert ext[j + 1][0] == (-1 if pairing else 0)
    if datum.is_affine():
        assert datum.real.delta_coeff == scale


def test_extend_ambient_rules():
    for fam, (lo, _) in criteria._EXTENSION_TABLE.items():
        for l in range(lo, 5):
            _assert_attach_rule(X.extend_restricted(C.FinTypeLabel(fam, l)), 2)
    for name in AMBIENT_CASES:
        _assert_attach_rule(AmbientCase(name).amb, 1)
    base = C.build_cartan(lab("A1"))
    datum = X.extend_ambient(base, C.WeightVec("A1", (Q(2),)))
    assert datum.extended.entries == ((2, -2), (-1, 2))
    # flip ambient: node 0 attached by single bonds to the two omega_1 nodes
    cc = C.build_cartan(lab("C2")).block_sum(C.build_cartan(lab("C2")))
    eps = C.WeightVec("C2+C2", (Q(1), Q(0), Q(1), Q(0)))
    datum = X.extend_ambient(cc, eps)
    assert datum.extended.entries[0] == (2, -1, 0, -1, 0)
    assert datum.classification == C.AFFINE


def test_n0_values():
    assert X.n0(X.extend_restricted(lab("A2"))) == Q(3, 2)
    assert X.n0(X.extend_restricted(lab("A1"))) == 1
    assert X.n0(X.extend_restricted(lab("C2"))) == 0
    assert X.n0(X.extend_restricted(lab("B3"))) == 0


def test_simple_root_normal_forms():
    # node-0 root is 2 e_eps_0 - 2 e_eps_1 (+ 2 delta in affine type);
    # middle roots are 2 e_eps_i - e_eps_{i-1} - e_eps_{i+1}
    for name in ("A2", "A3", "B2", "C2", "BC2", "C3"):
        datum = X.extend_restricted(lab(name))
        l = datum.rank
        delta0 = datum.real.delta().scale(int(datum.is_affine()))
        assert CR.simple_root(datum.real, 0) == \
            datum.e_eps(0).scale(2) - datum.e_eps(1).scale(2) + delta0.scale(2)
        for i in range(1, l):
            assert CR.simple_root(datum.real, i) == \
                datum.e_eps(i).scale(2) - datum.e_eps(i - 1) - datum.e_eps(i + 1)


def test_egr_anchors():
    for name in ("A2", "C2", "B2", "BC3"):
        datum = X.extend_restricted(lab(name))
        l = datum.rank
        assert X.egr(datum, datum.e_omega0()) == X.n0(datum)
        for i in range(l):
            assert X.egr(datum, CR.simple_root(datum.real, i)) == 0
        assert X.egr(datum, CR.simple_root(datum.real, l)) > 0


def test_split_normal_form():
    datum = X.extend_restricted(lab("C2"))
    om = datum.e_omega0()
    nf = X.split_normal_form(datum, om)
    assert nf.eps_coords == (0, 0, 0) and nf.gamma == 1 and nf.delta == 0
    v = datum.e_eps(1) - om - datum.real.delta().scale(1)
    nf = X.split_normal_form(datum, v)
    assert nf.eps_coords == (0, 1, 0) and nf.gamma == -1 and nf.delta == -1
    assert X.gr(nf) == 1
    # gr gives e_eps_0 the weight 0, so moving weight from gamma to it is free
    shifted = X.SplitWeight((Q(1, 2), 0, 0), Q(0), Q(0))
    assert X.gr(shifted) == X.gr(X.split_normal_form(datum, om))


def _solve_split_normal_form(datum, v):
    """The split normal form by one linear solve over e_eps_1..e_eps_l, the
    earlier `split_normal_form`."""
    l = datum.rank
    eps = [datum.e_eps(i) for i in range(1, l + 1)]
    rows = [[eps[i].coords[j + 1] for i in range(l)] for j in range(l)]
    sol = linalg.solve(rows, [v.coords[j + 1] for j in range(l)])
    assert sol is not None
    return X.SplitWeight((Q(0),) + tuple(sol), 2 * v.coords[0], v.delta)


TIERS = [X.extend_restricted(lab(f"{fam}{rank}")) for fam in ("A", "B", "C", "BC")
         for rank in range(1, 5) if not (fam == "C" and rank == 1)]
HALVES = st.integers(-7, 7).map(lambda k: Q(k, 2))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TIERS), st.lists(HALVES, min_size=5, max_size=5),
       st.one_of(st.just(Q(0)), HALVES))
def test_split_normal_form_agrees_with_solve(datum, coords, delta):
    v = datum.real.weight(coords[:datum.rank + 1], delta)
    solved = _solve_split_normal_form(datum, v)
    assert X.split_normal_form(datum, v) == solved
    if delta and not datum.is_affine():     # a finite tier has no delta in its root span
        with pytest.raises(ValueError, match="outside the root span"):
            X.egr(datum, v)
    else:
        assert X.egr(datum, v) == X.gr(solved) + datum.pairing_D(v)


def test_eps_coefficient():
    for name, want in (("A3", [1, 1, 1]), ("C3", [1, 1, 1]), ("B3", [1, 1, 2]),
                       ("BC3", [1, 1, 2]), ("B1", [2])):
        datum = X.extend_restricted(lab(name))
        got = [datum.eps_coefficient(i) for i in range(1, datum.rank + 1)]
        assert got == want, name
        assert [datum.e_eps(i).coords[i] for i in range(1, datum.rank + 1)] == want, name
    d4 = X.extend_restricted(lab("D4"))
    for call in (lambda: d4.eps_coefficient(1), lambda: X.split_normal_form(d4, d4.e_omega0())):
        with pytest.raises(ValueError, match="no quadratic basis"):
            call()


def test_pairing_D_tau_hat():
    for name in ("A2", "C2"):
        datum = X.extend_restricted(lab(name))
        om = datum.e_omega0()
        for m in range(datum.rank + 1):
            v = tau_hat(m, datum).act(om)
            assert datum.pairing_D(v) == X.n0(datum) - m


def test_restricted_rejects_bad_family():
    with pytest.raises(ValueError):
        X.extend_restricted(lab("G2"))
    with pytest.raises(ValueError):
        X.extend_ambient(C.build_cartan(lab("A2")),
                         C.WeightVec("A2", (Q(1, 2), Q(0))))
