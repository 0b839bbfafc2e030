"""Parsing and formatting of exact rational literals."""

from fractions import Fraction

import pytest

from reflecto import (
    RationalParseError,
    as_rational,
    format_rational,
    parse_rational,
    parse_rational_csv,
)


def test_parse_simple_fraction():
    assert parse_rational("1/3") == Fraction(1, 3)


def test_parse_integer_and_zero():
    assert parse_rational("0") == Fraction(0)
    assert parse_rational("17") == Fraction(17)
    assert parse_rational("-4") == Fraction(-4)


def test_parse_canonicalizes():
    value = parse_rational("-6/4")
    assert value == Fraction(-3, 2)
    assert value.denominator == 2


def test_format_is_canonical():
    assert format_rational(Fraction(-3, 2)) == "-3/2"
    assert format_rational(Fraction(5)) == "5"


def test_round_trip_is_idempotent():
    for text in ["0", "1", "-1", "2/3", "-7/9", "1000000000000/7"]:
        assert format_rational(parse_rational(text)) == text


@pytest.mark.parametrize(
    "bad",
    # "٣/٤" is 3/4 in Arabic-Indic digits, which \d and Fraction() accept
    ["", "1.5", "1e3", "a", "1/ 2", "+2", "2/-3", "1/0", "--3", "3 / 4", "nan", "٣/٤"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(RationalParseError):
        parse_rational(bad)


def test_parse_rejects_literal_beyond_int_conversion_limit():
    # int() refuses strings of more than sys.get_int_max_str_digits() digits
    with pytest.raises(RationalParseError, match="digits"):
        parse_rational("1" * 5000)


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(RationalParseError):
        as_rational(0.5)
    with pytest.raises(RationalParseError):
        as_rational(True)


def test_csv_vector():
    assert parse_rational_csv("1,1/2,-3") == (Fraction(1), Fraction(1, 2), Fraction(-3))
    with pytest.raises(RationalParseError):
        parse_rational_csv("")
    # whitespace around an entry is allowed, an empty entry is not
    assert parse_rational_csv(" 1 , 2 ") == (Fraction(1), Fraction(2))
    for text in ("1,,2", "1,2,", ",1", "1, ,2"):
        with pytest.raises(RationalParseError, match="empty entry in rational list"):
            parse_rational_csv(text)
