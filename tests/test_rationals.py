from fractions import Fraction

import pytest

from ska.rationals import denominator_lcm, format_rational, parse_rational


def test_parse_fraction_and_integer_strings():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 5/6 ") == Fraction(5, 6)
    assert parse_rational(12) == Fraction(12)
    # decimal strings are exact and tolerated on input (output is always p/q)
    assert parse_rational("1.5") == Fraction(3, 2)


@pytest.mark.parametrize("bad", ["", "a/b", "1/0", None, 1.5, True])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_omits_unit_denominator():
    assert format_rational(Fraction(3, 1)) == "3"
    assert format_rational(Fraction(1, 3)) == "1/3"
    assert format_rational(Fraction(-2, 4)) == "-1/2"


def test_denominator_lcm():
    assert denominator_lcm([]) == 1
    assert denominator_lcm([Fraction(1, 2), Fraction(1, 3), Fraction(5)]) == 6


def test_a_rational_past_the_digit_bound_names_it_and_echoes_a_prefix():
    for value in ("9" * 5000, "1/" + "7" * 4301):
        with pytest.raises(ValueError) as info:
            parse_rational(value)
        message = str(info.value)
        assert "more than 4300 digits" in message
        assert f"({len(value)} characters)" in message
        assert len(message) < 200
    # Past the bound in total, not in either part: still a rational.
    numerator, denominator = "3" * 3000, "7" * 3000
    assert parse_rational(f"{numerator}/{denominator}") == Fraction(int(numerator), int(denominator))


def test_a_long_non_rational_is_echoed_as_a_prefix():
    with pytest.raises(ValueError) as info:
        parse_rational("x" * 5000)
    message = str(info.value)
    assert message.startswith("not a rational: 'xxx") and "(5000 characters)" in message
    assert "digits" not in message and len(message) < 100
