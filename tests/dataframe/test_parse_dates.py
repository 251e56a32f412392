"""``parse_date`` and ``parse_timestamp`` answer like trying every format.

Both now return None before calling ``strptime`` when the text has neither
``-`` nor ``/``, which every format holds as a literal.  The loops they
replaced (try each format, catch each ``ValueError``) are the oracles here.
"""

from __future__ import annotations

import datetime as dt

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.dataframe.schema import _DATE_FORMATS, _TIMESTAMP_FORMATS, parse_date, parse_timestamp


def every_format(text, formats):
    for fmt in formats:
        try:
            return dt.datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
    return None


def date_by_every_format(text):
    parsed = every_format(text, _DATE_FORMATS)
    return None if parsed is None else parsed.date()


def formatted(moment, formats):
    return st.sampled_from(formats).map(moment.strftime)


TEXTS = st.one_of(
    st.datetimes(min_value=dt.datetime(1000, 1, 1)).flatmap(
        lambda moment: formatted(moment, _DATE_FORMATS + _TIMESTAMP_FORMATS)
    ),
    st.text(alphabet=st.sampled_from("0123456789-/: .Tapm \n"), max_size=20),
    st.text(max_size=12),
)


@settings(max_examples=1500, deadline=None)
@given(TEXTS)
@example("10:31 p.m.")
@example(" 2021-03-04 ")
@example("03/04/2021")
@example("2021-03-04T10:31:00")
@example("20210304")
@example("")
def test_dates_and_timestamps_parse_like_every_format(text):
    assert parse_date(text) == date_by_every_format(text)
    assert parse_timestamp(text) == every_format(text, _TIMESTAMP_FORMATS)


def test_every_format_holds_a_separator():
    assert all("-" in fmt or "/" in fmt for fmt in _DATE_FORMATS + _TIMESTAMP_FORMATS)
