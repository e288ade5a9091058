import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from k3m20.kernels import ReductionAnomaly
from oracles import EvenBinaryForm, ReducedForm, canonical, equivalent, from_gram, reduce, transform

entries = st.integers(min_value=-60, max_value=60)


@st.composite
def pos_def_forms(draw):
    a = draw(st.integers(min_value=1, max_value=60))
    c = draw(st.integers(min_value=1, max_value=60))
    b = draw(st.integers(min_value=-120, max_value=120))
    assume(4 * a * c - b * b > 0)
    return EvenBinaryForm(a, b, c)


@st.composite
def sl2(draw):
    # build determinant-1 matrices as products of elementary ones
    m = ((1, 0), (0, 1))
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        k = draw(st.integers(min_value=-3, max_value=3))
        if draw(st.booleans()):
            e = ((1, k), (0, 1))
        else:
            e = ((1, 0), (k, 1))
        m = (
            (
                m[0][0] * e[0][0] + m[0][1] * e[1][0],
                m[0][0] * e[0][1] + m[0][1] * e[1][1],
            ),
            (
                m[1][0] * e[0][0] + m[1][1] * e[1][0],
                m[1][0] * e[0][1] + m[1][1] * e[1][1],
            ),
        )
    return m


def test_validation():
    with pytest.raises(ValueError):
        EvenBinaryForm(0, 0, 1)
    with pytest.raises(ValueError):
        EvenBinaryForm(1, 0, -1)
    with pytest.raises(ValueError):
        EvenBinaryForm(1, 5, 1)  # d = -21
    f = EvenBinaryForm(2, 1, 3)
    assert f.discriminant == 23
    assert f.gram == ((8, 2), (2, 12))


def test_from_gram():
    assert from_gram(((8, 0), (0, 60))).triple() == (2, 0, 15)
    assert from_gram(((4, 2), (2, 4))).triple() == (1, 1, 1)
    with pytest.raises(ValueError):
        from_gram(((4, 1), (1, 4)))
    with pytest.raises(ValueError):
        from_gram(((6, 0), (0, 4)))
    with pytest.raises(ValueError):
        from_gram(((4, 0), (2, 4)))


def test_reduced_form_predicate():
    assert ReducedForm(2, 2, 2).is_reduced()
    assert ReducedForm(1, 0, 10).is_reduced()
    with pytest.raises(ValueError):
        ReducedForm(2, -2, 2)  # b = -a violates -a < b
    with pytest.raises(ValueError):
        ReducedForm(3, 0, 2)  # a > c
    with pytest.raises(ValueError):
        ReducedForm(2, 3, 5)  # b > a


def test_reduced_form_inequality_is_checked(monkeypatch):
    # is_reduced implies b^2 <= ac; the check stands on its own should it break
    monkeypatch.setattr(EvenBinaryForm, "is_reduced", lambda self: True)
    with pytest.raises(ReductionAnomaly, match="b\\^2 <= ac"):
        ReducedForm(2, 6, 15)


def test_reduce_worked_case():
    r, t = reduce(EvenBinaryForm(2, -12, 33))
    assert r.triple() == (2, 0, 15)
    assert t == ((1, 3), (0, 1))
    assert transform(EvenBinaryForm(2, -12, 33), t).triple() == (2, 0, 15)
    # mirrored gram, as produced by the other complement basis orientation
    r2, _ = reduce(EvenBinaryForm(2, 12, 33))
    assert r2.triple() == (2, 0, 15)


def test_reduce_examples():
    assert reduce(EvenBinaryForm(5, -15, 15))[0].triple() == (5, 5, 5)
    assert reduce(EvenBinaryForm(170, 40, 5))[0].triple() == (5, 0, 90)
    assert reduce(EvenBinaryForm(2, 8, 23))[0].triple() == (2, 0, 15)
    assert reduce(EvenBinaryForm(1, 0, 10))[0].triple() == (1, 0, 10)


def test_transform_rejects_non_unimodular():
    with pytest.raises(ValueError):
        transform(EvenBinaryForm(1, 0, 1), ((1, 0), (0, -1)))
    with pytest.raises(ValueError):
        transform(EvenBinaryForm(1, 0, 1), ((2, 0), (0, 1)))


@given(pos_def_forms())
def test_reduce_invariants(f):
    r, t = reduce(f)
    assert r.is_reduced()
    assert -r.a < r.b <= r.a <= r.c
    assert r.discriminant == f.discriminant
    assert t[0][0] * t[1][1] - t[0][1] * t[1][0] == 1
    assert transform(f, t).triple() == r.triple()


@given(pos_def_forms())
def test_reduce_is_idempotent_on_reduced(f):
    r, _ = reduce(f)
    r2, t2 = reduce(r)
    assert r2.triple() == r.triple()
    assert t2 == ((1, 0), (0, 1))


@given(pos_def_forms(), sl2())
def test_equivalence_under_transforms(f, t):
    g = transform(f, t)
    assert equivalent(f, g)
    assert canonical(f).triple() == canonical(g).triple()


def test_buell_exceptional_pairs():
    assert equivalent(EvenBinaryForm(1, 1, 2), EvenBinaryForm(1, -1, 2))
    assert equivalent(EvenBinaryForm(5, 2, 5), EvenBinaryForm(5, -2, 5))
    assert canonical(EvenBinaryForm(1, -1, 2)).triple() == (1, 1, 2)
    assert canonical(EvenBinaryForm(5, -2, 5)).triple() == (5, 2, 5)
    # generic reduced forms with b of both signs stay distinct
    assert not equivalent(EvenBinaryForm(2, 1, 3), EvenBinaryForm(2, -1, 3))


def test_inequivalent_same_discriminant():
    f1, f2 = EvenBinaryForm(1, 0, 10), EvenBinaryForm(2, 0, 5)
    assert f1.discriminant == f2.discriminant == 40
    assert not equivalent(f1, f2)


@given(pos_def_forms(), pos_def_forms())
def test_equivalent_symmetric(f, g):
    assert equivalent(f, g) == equivalent(g, f)


@given(pos_def_forms())
def test_canonical_is_class_constant(f):
    c = canonical(f)
    assert c.b >= 0 or (c.b != -c.a and c.a != c.c)
    assert equivalent(f, c)
    assert canonical(c).triple() == c.triple()
