"""Crystal operators on signed unimodal factorizations.

Elements are tuples of signed factors ``(sign, letters)`` whose
concatenation is a fixed reduced word; see ``typeb.check_factorization``.
The even operators move letters between factors by transport through the
primed insertion (the insertion tableau never changes, only the recording
tableau does).  The odd operators have a direct description on the first
two factors, implemented here; ``e_bar1_transport``/``f_bar1_transport``
compute the same maps the slow way, one factorization at a time.
``verify.check_fact_transport`` reads the transport of a whole
(perm, m) sweep off one P-fibre table instead: one ``pkr`` and one
``pkr_fibre`` per fibre, whose inverse runs once per pair (P, T).

These are the per-element operators.  Whole components are closed on the
recording tableau instead (``models.model_fact`` names the signed primed
tableau crystal as its proxy): one insertion per component, one inverse
insertion per vertex, and the odd pair here checked against transport on
every vertex.  So ``e_fact``/``f_fact`` are not on that path; they stay
as the definition of the even operators.

All operators take a factorization tuple, check it with
``typeb.check_factorization`` and answer with a tuple; the text form
"(+01)(-2)" is parsed and printed only by ``typeb``.  ``None`` means the
operator is undefined there.
"""

from . import kraskiewicz as kw
from . import ptops
from . import tableaux as tb
from . import typeb


def e_bar1_fact(fact):
    """Odd raising operator: pulls a letter from factor two into factor one.

    >>> fmt, parse = typeb.fmt_factorization, typeb.parse_factorization
    >>> fmt(e_bar1_fact(parse("(+201)(-2)()")))
    '(+2012)()()'
    """
    fact = typeb.check_factorization(fact)
    if len(fact) < 2:
        return None
    (s1, a1), (s2, a2) = fact[0], fact[1]
    concat = a1 + a2
    if concat and not tb.is_unimodal(concat):
        # a2 is nonempty here: a1 alone is unimodal
        new_a1 = a1 + (a2[0],)
        if not tb.is_unimodal(new_a1):
            return None
        # |a2| >= 2, else new_a1 would be the whole non-unimodal concat
        return ((s1, new_a1), (s2, a2[1:])) + fact[2:]
    if not a2 or (s1 != 0 and s2 > 0):
        return None
    new_s1 = s1 if a1 else s2
    new_s2 = 1 if len(a2) > 1 else 0
    return ((new_s1, a1 + (a2[0],)), (new_s2, a2[1:])) + fact[2:]


def f_bar1_fact(fact):
    """Odd lowering operator: pushes a letter from factor one into factor two.

    >>> fmt, parse = typeb.fmt_factorization, typeb.parse_factorization
    >>> fmt(f_bar1_fact(parse("(+2012)()()")))
    '(+201)(-2)()'
    >>> f_bar1_fact(parse("(+0)(-1)(+21)")) is None
    True
    """
    fact = typeb.check_factorization(fact)
    if len(fact) < 2:
        return None
    (s1, a1), (s2, a2) = fact[0], fact[1]
    concat = a1 + a2
    if concat and not tb.is_unimodal(concat):
        # a1 is nonempty here: a2 alone is unimodal
        new_a2 = (a1[-1],) + a2
        if not tb.is_unimodal(new_a2):
            return None
        # |a1| >= 2, else new_a2 would be the whole non-unimodal concat
        return ((s1, a1[:-1]), (s2, new_a2)) + fact[2:]
    if not a1 or (a2 and s2 < 0):
        return None
    if len(a1) > 1:
        new_s1, new_s2 = s1, -1
    else:
        new_s1, new_s2 = 0, s1
    return ((new_s1, a1[:-1]), (new_s2, (a1[-1],) + a2)) + fact[2:]


# ---------------------------------------------------------------------------
# transport through the primed insertion

def within(t, m: int):
    """t, or None when t is None or has an entry over m.

    A tableau operator can leave the entries-<=-m family (only the odd
    pair at m = 1 does); the factor operator is then undefined.
    """
    if t is None or any(tb.code_value(v) > m for row in t for v in row):
        return None
    return t


def _transport(fact, op):
    fact = typeb.check_factorization(fact)
    p, t = kw.pkr(fact)
    t2 = within(op(t), len(fact))
    return None if t2 is None else kw.pkr_inverse(p, t2, m=len(fact))


def e_fact(fact, i):
    """Raising operator of color i (an int, or "b1" for the odd one).

    >>> fmt, parse = typeb.fmt_factorization, typeb.parse_factorization
    >>> fmt(e_fact(parse("(+02)(+12)()"), 1))
    '(+012)(+1)()'
    """
    if i == "b1":
        return e_bar1_fact(fact)
    return _transport(fact, lambda t: ptops.e_signed(i, t))


def f_fact(fact, i):
    """Lowering operator of color i (an int, or "b1" for the odd one).

    >>> fmt, parse = typeb.fmt_factorization, typeb.parse_factorization
    >>> fmt(f_fact(parse("(+012)(+1)()"), 2))
    '(+012)()(+1)'
    """
    if i == "b1":
        return f_bar1_fact(fact)
    return _transport(fact, lambda t: ptops.f_signed(i, t))


def e_bar1_transport(fact):
    """The odd raising operator computed through the insertion."""
    return _transport(fact, lambda t: ptops.e_signed("b1", t))


def f_bar1_transport(fact):
    """The odd lowering operator computed through the insertion."""
    return _transport(fact, lambda t: ptops.f_signed("b1", t))
