"""The ``.poset`` text fixture format: parse, render, build."""

import pytest

from kleene_posets import (FixtureParseError, Poset, UsageError, build,
                           document_from, figure, parse, render)
from kleene_posets.involution import InvolutivePoset

ALL_FIGS = [f"fig{i}" for i in range(1, 10)]


@pytest.mark.parametrize("name", ALL_FIGS)
def test_render_parse_build_roundtrip(name):
    obj = figure(name)
    doc = document_from(obj)
    text = render(doc)
    rebuilt = build(parse(text))
    if isinstance(obj, InvolutivePoset):
        assert rebuilt.base == obj.base and rebuilt.inv == obj.inv
    else:
        assert rebuilt == obj


@pytest.mark.parametrize("name", ALL_FIGS)
def test_render_is_canonical(name):
    doc = document_from(figure(name))
    text = render(doc)
    assert render(parse(text)) == text


def test_parse_minimal():
    doc = parse("elements a b\ncovers a<b\n")
    p = build(doc)
    assert isinstance(p, Poset)
    assert p.labels == ("a", "b")
    assert p.leq("a", "b")


def test_parse_with_involution_and_bounds():
    text = ("# a bounded two-chain\n"
            "elements 0 1\n"
            "covers 0<1\n"
            "involution 0:1\n"
            "bounds 0 1\n")
    obj = build(parse(text))
    assert isinstance(obj, InvolutivePoset)
    assert obj.inv == (1, 0)


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\nelements a\n\n# done\n"
    assert build(parse(text)).labels == ("a",)


def test_multiple_covers_per_line():
    doc = parse("elements a b c\ncovers a<b b<c\n")
    assert build(doc).leq("a", "c")


PARSE_ERRORS = [
    ("", 1, "missing elements line"),
    ("covers a<b\n", 1, "before the elements line"),
    ("elements a b\nelements c\n", 2, "duplicate elements line"),
    ("elements\n", 1, "names no elements"),
    ("elements a a\n", 1, "duplicate element name"),
    ("elements a b\ncovers\n", 2, "no pairs"),
    ("elements a b\ncovers ab\n", 2, "malformed cover 'ab' (expected A<B)"),
    ("elements a b\ncovers a<zz\n", 2, "unknown element"),
    ("elements a b\ncovers a<a\n", 2, "itself"),
    ("elements a b\ninvolution\n", 2, "no pairs"),
    ("elements a b\ninvolution a=b\n", 2, "malformed pair 'a=b' (expected A:B)"),
    ("elements a b\ninvolution a:zz\n", 2, "unknown element"),
    ("elements a b c\ninvolution a:b a:c\n", 2, "paired with both"),
    ("elements a b c\ninvolution a:b\n", 2, "does not cover"),
    ("elements a b\nbounds a\n", 2, "exactly two"),
    ("elements a b\nbounds a b\nbounds a b\n", 3, "duplicate bounds"),
    ("elements a b\nbounds a zz\n", 2, "unknown element"),
    ("elements a b\nfrobnicate a\n", 2, "unknown directive"),
]


@pytest.mark.parametrize("text,line,fragment", PARSE_ERRORS)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(FixtureParseError) as exc:
        parse(text)
    assert exc.value.line == line
    assert f"line {line}:" in str(exc.value)
    assert fragment in str(exc.value)


def test_cover_cycle_rejected_at_build():
    with pytest.raises(UsageError):
        build(parse("elements a b\ncovers a<b b<a\n"))


def test_declared_bounds_validated():
    with pytest.raises(UsageError) as exc:
        build(parse("elements a b c\ncovers a<b\nbounds a c\n"))
    assert "not the" in str(exc.value)


def test_document_from_with_bounds():
    p = figure("fig4")
    from kleene_posets import PosetDocument
    doc = document_from(p, bounds=("0", "1"))
    text = render(doc)
    assert "bounds 0 1" in text
    rebuilt = build(parse(text))
    assert rebuilt.base == p.base


def test_fixture_files_match_figures():
    """The committed fixtures are exactly the bundled structures."""
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent / "fixtures"
    for name in ALL_FIGS:
        text = (root / f"{name}.poset").read_text()
        rebuilt = build(parse(text))
        obj = figure(name)
        if isinstance(obj, InvolutivePoset):
            assert rebuilt.base == obj.base and rebuilt.inv == obj.inv, name
        else:
            assert rebuilt == obj, name


def test_involution_normalized_index_order():
    d1 = parse("elements a b\ninvolution a:b\n")
    d2 = parse("elements a b\ninvolution b:a\n")
    assert d1.involution == d2.involution
    assert render(d1) == render(d2)
