from hypothesis import given
from hypothesis import strategies as st

from k3m20.lattice import domain_point, norm
from oracles import (
    GENERATORS,
    IDENTITY,
    NEG_IDENTITY,
    RHO1,
    RHO2,
    EvenBinaryForm,
    canonical_member,
    canonical_rep,
    enumerate_solutions,
    equivalent,
    from_gram,
    generate_group,
    is_isometry,
    mat_mul,
    mat_vec,
    orbit,
    orbit_size,
    orthogonal_complement,
    same_orbit,
)

small = st.integers(min_value=-20, max_value=20)
vectors = st.tuples(small, small, small)


def vectors_of_norm_up_to(bound):
    out = []
    lam_top = 12
    for lam in range(-lam_top, lam_top + 1):
        for mu in range(-lam_top, lam_top + 1):
            for delta in range(-7, 8):
                v = (lam, mu, delta)
                if 0 < norm(v) <= bound:
                    out.append(v)
    return out


def test_generator_relations():
    assert mat_mul(RHO1, RHO1) == IDENTITY
    assert mat_mul(RHO2, RHO2) == IDENTITY
    m = mat_mul(RHO1, RHO2)
    m4 = mat_mul(mat_mul(m, m), mat_mul(m, m))
    assert m4 == IDENTITY
    assert mat_mul(NEG_IDENTITY, NEG_IDENTITY) == IDENTITY


def test_generator_actions():
    assert mat_vec(RHO1, (1, 2, 3)) == (2, 1, 3)
    assert mat_vec(RHO2, (1, 2, 3)) == (-2, -2, -3)
    assert mat_vec(NEG_IDENTITY, (1, 2, 3)) == (-1, -2, -3)


def test_group_order_and_membership():
    group = generate_group()
    assert len(group) == 16
    assert IDENTITY in group
    for g in GENERATORS:
        assert g in group
    for m in group:
        assert is_isometry(m)
    # closure
    elems = set(group)
    for m in group:
        for n in group:
            assert mat_mul(m, n) in elems


def test_every_element_flips_or_keeps_delta():
    for m in generate_group():
        assert m[2][:2] == (0, 0)
        assert m[2][2] in (1, -1)


def test_orbit_of_h():
    # oracle: the full image list of (0,0,1), computed from the group law
    listed = {
        (0, 0, 1), (0, 0, -1),
        (1, 0, 1), (-1, 0, -1),
        (0, 1, 1), (0, -1, -1),
        (1, 1, 1), (-1, -1, -1),
    }
    assert orbit((0, 0, 1)) == listed
    assert canonical_rep((0, 0, 1)) == min(listed)
    assert canonical_rep((0, 0, 1)) == (-1, -1, -1)


def test_orbit_chain_of_worked_case():
    flip_reflect = mat_mul(NEG_IDENTITY, RHO2)
    assert mat_vec(flip_reflect, (1, 1, 1)) == (0, 1, 1)  # e+f+h -> f+h
    assert mat_vec(RHO1, (0, 1, 1)) == (1, 0, 1)  # f+h -> e+h
    assert mat_vec(flip_reflect, (1, 0, 1)) == (0, 0, 1)  # e+h -> h
    assert same_orbit((1, 1, 1), (0, 0, 1))


def test_same_orbit_requires_equal_norm():
    assert not same_orbit((1, 1, 0), (1, 2, 0))
    assert same_orbit((1, 2, 0), (2, 1, 0))


def test_equal_norm_is_not_sufficient():
    v, w = (3, 6, 5), (5, 0, 5)
    assert norm(v) == norm(w) == 300
    assert not same_orbit(v, w)


@given(vectors)
def test_orbit_membership_is_symmetric(v):
    for w in orbit(v):
        assert same_orbit(w, v)


@given(vectors, st.integers(min_value=1, max_value=9))
def test_orbit_commutes_with_scaling(v, r):
    scaled = {(r * a, r * b, r * c) for a, b, c in orbit(v)}
    assert orbit((r * v[0], r * v[1], r * v[2])) == scaled


@given(vectors)
def test_orbit_sizes_divide_group_order(v):
    assert 16 % len(orbit(v)) == 0


def test_norm_is_orbit_invariant_exhaustive():
    for v in vectors_of_norm_up_to(400):
        nv = norm(v)
        orb = orbit(v)
        assert all(norm(w) == nv for w in orb)
        assert all(abs(w[2]) == abs(v[2]) for w in orb)


def test_complement_class_is_orbit_invariant_up_to_mirror():
    # an isometry carrying v to w restricts to an isometry of the
    # complements, but it may reverse orientation: across one orbit the
    # complement forms agree up to the mirror (a, -b, c), not always as
    # proper SL2 classes
    seen = set()
    mirrored_pairs = 0
    for v in vectors_of_norm_up_to(400):
        if v in seen:
            continue
        orb = orbit(v)
        seen |= orb
        forms = []
        for w in orb:
            _, gram = orthogonal_complement(w)
            forms.append(from_gram(gram))
        f0 = forms[0]
        mirror = EvenBinaryForm(f0.a, -f0.b, f0.c)
        for f in forms[1:]:
            if equivalent(f0, f):
                continue
            assert equivalent(mirror, f)
            mirrored_pairs += 1
    # both orientations really occur (e.g. the (9, 6, 11) class at norm 36)
    assert mirrored_pairs > 0


def test_isometry_rejects_non_preserving_matrix():
    assert not is_isometry(((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert not is_isometry(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
    assert is_isometry(RHO1) and is_isometry(RHO2) and is_isometry(NEG_IDENTITY)


def test_canonical_rep_is_orbit_constant():
    assert canonical_rep((0, 0, 0)) == (0, 0, 0)
    for v in [(1, 2, 0), (0, 0, 1), (3, 1, -2)]:
        rep = canonical_rep(v)
        assert {canonical_rep(w) for w in orbit(v)} == {rep}
        assert rep in orbit(v)


def test_closed_form_matches_oracle_group_up_to_norm_400():
    # every vector of norm <= 400: same_orbit is checked on every pair within
    # a norm shell, and each orbit's smallest member against every vector
    shells = [[(0, 0, 0)]] + [enumerate_solutions(n) for n in range(1, 101)]
    everything = [v for shell in shells for v in shell]
    assert len(everything) == len(vectors_of_norm_up_to(400)) + 1
    for shell in shells:
        for v in shell:
            orb = orbit(v)
            point = domain_point(v)
            assert canonical_rep(v) == canonical_member(*point) == min(orb), v
            assert orbit_size(*point) == len(orb), v
            for w in shell:
                assert same_orbit(v, w) == (w in orb), (v, w)
            if v == min(orb):
                assert [w for w in everything if same_orbit(v, w)] == sorted(orb), v
