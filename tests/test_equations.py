from pathlib import Path

import pytest

from equations import QuadricTerm, parse_quadrics

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="module")
def quadrics():
    return parse_quadrics((DATA / "quadrics_p7.txt").read_text("utf-8"))


def test_record_and_term_counts(quadrics):
    assert len(quadrics) == 10
    assert [len(q.terms) for q in quadrics] == [8, 8, 8, 8, 9, 9, 9, 10, 9, 9]


def test_every_term_is_degree_two_in_coordinates(quadrics):
    names = {f"x{i}" for i in range(1, 9)}
    for q in quadrics:
        for t in q.terms:
            assert len(t.variables) == 2
            assert set(t.variables) <= names
        # no repeated monomial within one polynomial
        assert len(set(q.monomials)) == len(q.monomials)


def test_denominators(quadrics):
    dens = {t.denominator for q in quadrics for t in q.terms}
    assert dens == {1, 3, 5, 9, 15}
    assert all(t.denominator >= 1 for q in quadrics for t in q.terms)


def test_spot_terms(quadrics):
    first = quadrics[0].terms[0]
    assert first == QuadricTerm(
        numerator="-736*a^7 + 528*a^6 - 352*a^5 - 528*a^4 - 736*a^3 - 304",
        denominator=15,
        variables=("x1", "x7"),
    )
    integer_term = quadrics[4].terms[1]
    assert integer_term == QuadricTerm(numerator="32", denominator=1, variables=("x2", "x3"))
    square_term = quadrics[4].terms[3]
    assert square_term.variables == ("x5", "x5")
    negative_term = quadrics[9].terms[5]
    assert negative_term == QuadricTerm(numerator="-32", denominator=1, variables=("x5", "x7"))


def test_monomial_supports(quadrics):
    # the first four quadrics are supported on mixed products only
    for q in quadrics[:4]:
        assert all(u != v for (u, v) in q.monomials)
    # quadric 9 contains the plain squares x2^2 and x4^2 with integer coefficients
    plain = {t.variables: t for t in quadrics[8].terms}
    assert plain[("x2", "x2")].numerator == "16"
    assert plain[("x4", "x4")].numerator == "80"


def test_parse_roundtrip_of_simple_text():
    text = """
    # comment
    32 * x1*x2
    (4*a^2 - 4)/3 * x3^2
    ---
    -7 * x8^2
    """
    qs = parse_quadrics(text)
    assert len(qs) == 2
    assert qs[0].terms[0].variables == ("x1", "x2")
    assert qs[0].terms[1] == QuadricTerm(numerator="4*a^2 - 4", denominator=3, variables=("x3", "x3"))
    assert qs[1].terms[0].numerator == "-7"


@pytest.mark.parametrize(
    "bad",
    [
        "x1*x2",  # no coefficient
        "(2*a/5 * x1*x2",  # unbalanced parentheses
        "32 * x1*x9",  # coordinate out of range
        "32 * x1^3",  # degree 3
        "32 * x1*x2*x3",  # degree 3, mixed
        "(2b) * x1*x2",  # malformed coefficient polynomial
        "(4*a)/0 * x1^2",  # zero denominator
        "() * x1*x2",  # empty coefficient
    ],
)
def test_malformed_terms_rejected(bad):
    with pytest.raises(ValueError):
        parse_quadrics(bad)


def test_malformed_structure_rejected():
    with pytest.raises(ValueError):
        parse_quadrics("---")
    with pytest.raises(ValueError):
        parse_quadrics("# only a comment\n")
    with pytest.raises(ValueError):
        parse_quadrics("")
