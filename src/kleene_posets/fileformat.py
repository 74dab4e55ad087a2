"""Line-oriented text format for order fixtures.

    # comment                      (anywhere; blank lines ignored)
    elements 0 a b 1               (required, exactly once, first directive)
    covers 0<a a<b b<1             (repeatable)
    involution 0:1 a:b             (repeatable; x:x allowed; symmetric)
    bounds 0 1                     (optional; designated bottom and top)

Element order in the ``elements`` line fixes canonical indices.  Cover
lines list Hasse edges; the full order is their reflexive-transitive
closure.  Involution lines must pair every element once closed
symmetrically.  All parse failures carry the offending line number.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import FixtureParseError, UsageError
from .involution import InvolutivePoset, involution_from_pairs
from .poset import Poset


class PosetDocument(namedtuple("PosetDocument", "elements covers involution bounds")):
    """``covers`` is ((low, high), ...), ``involution`` ((a, b), ...) with
    a-index <= b-index or None, and ``bounds`` (bottom, top) or None."""

    __slots__ = ()


def parse(text):
    """Parse fixture text into a document; raises on malformed input."""
    elements = None
    covers = []
    pairing = {}
    bounds = None
    last_involution_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "elements":
            if elements is not None:
                raise FixtureParseError("duplicate elements line", line=lineno)
            if not args:
                raise FixtureParseError("elements line names no elements", line=lineno)
            if len(set(args)) != len(args):
                dup = next(a for a in args if args.count(a) > 1)
                raise FixtureParseError(f"duplicate element name {dup!r}", line=lineno)
            elements, known = tuple(args), set(args)
            continue
        if elements is None:
            raise FixtureParseError(
                f"{directive!r} before the elements line", line=lineno)
        if directive == "covers":
            if not args:
                raise FixtureParseError("covers line lists no pairs", line=lineno)
            for token in args:
                low, high = _pair_token(token, "<", "cover", known, lineno)
                if low == high:
                    raise FixtureParseError(f"cover {token!r} relates an element "
                                            "to itself", line=lineno)
                covers.append((low, high))
        elif directive == "involution":
            if not args:
                raise FixtureParseError("involution line lists no pairs", line=lineno)
            last_involution_line = lineno
            for token in args:
                a, b = _pair_token(token, ":", "pair", known, lineno)
                for x, y in ((a, b), (b, a)):
                    if x in pairing and pairing[x] != y:
                        raise FixtureParseError(
                            f"{x!r} paired with both {pairing[x]!r} and {y!r}",
                            line=lineno)
                pairing[a] = b
                pairing[b] = a
        elif directive == "bounds":
            if bounds is not None:
                raise FixtureParseError("duplicate bounds line", line=lineno)
            if len(args) != 2:
                raise FixtureParseError("bounds line needs exactly two names",
                                        line=lineno)
            _require_known(args, known, lineno)
            bounds = (args[0], args[1])
        else:
            raise FixtureParseError(f"unknown directive {directive!r}", line=lineno)
    if elements is None:
        raise FixtureParseError("missing elements line", line=1)
    involution = None
    if pairing:
        missing = [e for e in elements if e not in pairing]
        if missing:
            raise FixtureParseError(
                f"involution does not cover {missing[0]!r}",
                line=last_involution_line)
        index = {e: i for i, e in enumerate(elements)}
        involution = tuple((a, pairing[a]) for a in elements
                           if index[a] <= index[pairing[a]])
    return PosetDocument(elements=elements, covers=tuple(covers),
                         involution=involution, bounds=bounds)


def _pair_token(token, sep, kind, known, lineno):
    """The two element names of an ``A<sep>B`` token on a line of pairs
    of ``kind``."""
    parts = token.split(sep)
    if len(parts) != 2 or not parts[0] or not parts[1]:
        raise FixtureParseError(
            f"malformed {kind} {token!r} (expected A{sep}B)", line=lineno)
    _require_known(parts, known, lineno)
    return parts


def _require_known(names, known, lineno):
    for name in names:
        if name not in known:
            raise FixtureParseError(f"unknown element {name!r}", line=lineno)


def render(doc):
    """Canonical text for a document; ``parse(render(doc))`` reproduces a
    document equal to ``parse``'s canonical form of the original."""
    out = ["elements " + " ".join(doc.elements)]
    out.extend(f"covers {low}<{high}" for low, high in doc.covers)
    if doc.involution is not None:
        out.append("involution " + " ".join(f"{a}:{b}" for a, b in doc.involution))
    if doc.bounds is not None:
        out.append(f"bounds {doc.bounds[0]} {doc.bounds[1]}")
    return "\n".join(out) + "\n"


def build(doc):
    """Construct the order (with unary map when the document carries
    one); declared bounds are verified against the computed order."""
    p = Poset.from_covers(doc.elements, doc.covers)
    if doc.bounds is not None:
        bottom, top = p.bounds()
        want_bottom, want_top = doc.bounds
        if bottom is None or p.labels[bottom] != want_bottom:
            raise UsageError(f"declared bottom {want_bottom!r} is not the least element")
        if top is None or p.labels[top] != want_top:
            raise UsageError(f"declared top {want_top!r} is not the greatest element")
    if doc.involution is None:
        return p
    inv = involution_from_pairs(doc.elements, doc.involution)
    return InvolutivePoset(p, inv)


def document_from(obj, bounds=None):
    """Canonical document for a Poset or InvolutivePoset."""
    if isinstance(obj, InvolutivePoset):
        p = obj.base
        involution = tuple((p.labels[i], p.labels[obj.inv[i]])
                           for i in range(p.n) if i <= obj.inv[i])
    else:
        p = obj
        involution = None
    covers = tuple((p.labels[a], p.labels[b]) for a, b in p.covers())
    if bounds is not None:
        bounds = (p.labels[p.index(bounds[0])], p.labels[p.index(bounds[1])])
    return PosetDocument(elements=p.labels, covers=covers,
                         involution=involution, bounds=bounds)
