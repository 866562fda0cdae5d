"""No memoised result depends on what ran before it.

Every public function with an ``exactalg._memo`` behind it, and the ballot
kernel memo ``qkit._kernel``, is called in a random order with ints and
integral floats, the caches kept warm from call to call; each result, or the
type of each raise, must be what the same call gives cold, right after
``tqeuler.clear_caches()``.  An integral float that reached the cache entry of
an equal int would return a value where the cold call raises.
"""

from hypothesis import example, given, settings, strategies as st

import tqeuler
from tqeuler import cfrac, exactalg, formulas, qkit


SIZED = {
    "odd_pochhammer": qkit.odd_pochhammer,
    "q_int": qkit.q_int,
    "square_sum": qkit.square_sum,
    "tk_recurrence": formulas.tk_recurrence,
    "euler_hat": cfrac.euler_hat,
    "dn_hat": cfrac.dn_hat,
}
SIZE = st.integers(-1, 7)
SIGN = st.sampled_from([1, -1])
ARGS = {
    "pochhammer": st.tuples(SIGN, st.integers(-4, 4), SIZE),
    "gauss_binom": st.tuples(st.integers(-1, 9), st.integers(-1, 9), st.booleans()),
    "tk_at": st.tuples(SIGN, st.integers(-4, 4), SIZE),
    "ballot_sum": st.tuples(SIZE, SIZE),  # (n, r)
}
INT_CALLS = st.one_of(
    *(st.tuples(st.just(name), args) for name, args in ARGS.items()),
    st.tuples(st.sampled_from(sorted(SIZED)), st.tuples(SIZE)),
)


def _sized_kernel(k, r):
    """``K_k = q**(k*r)``, with ``r`` checked by ``exactalg._size``: a float ``r`` raises cold."""
    return [(1, 0, k * exactalg._size(r, "r"), ())]


@st.composite
def call_lists(draw):
    """Calls drawn from a few int argument lists, with at most one argument made an equal
    float, so that equal keys recur."""
    pool = draw(st.lists(INT_CALLS, min_size=1, max_size=4))
    calls = []
    for _ in range(draw(st.integers(0, 16))):
        name, args = draw(st.sampled_from(pool))
        at = draw(st.integers(-1, len(args) - 1))  # -1: every argument an int
        calls.append((name, tuple(float(a) if i == at else a for i, a in enumerate(args))))
    return calls


def call(name, args):
    if name == "pochhammer":
        return qkit.pochhammer(*args)
    if name == "gauss_binom":
        return qkit.gauss_binom(*args)
    if name == "tk_at":
        return formulas.tk_at(*args)
    if name == "ballot_sum":
        n, r = args
        return qkit._ballot_sum(n, _sized_kernel, r)
    return SIZED[name](*args)


def outcome(name, args):
    """The value of the call and its repr (which shows a float coefficient), or the type it raises."""
    try:
        value = call(name, args)
    except Exception as exc:
        return "raises", type(exc)
    return value, repr(value)


@settings(deadline=None)
@given(call_lists())
@example([("pochhammer", (1, 1, 2)), ("pochhammer", (1.0, 1, 2))])
@example([("pochhammer", (-1, 1, 2)), ("pochhammer", (-1, 1.0, 2)), ("pochhammer", (-1, 1, 2.0))])
@example([("tk_at", (1, 2, 3)), ("tk_at", (1, 2.0, 3.0)), ("tk_recurrence", (3.0,))])
@example([("ballot_sum", (2, 3)), ("ballot_sum", (2, 3.0))])
def test_each_memoised_call_gives_what_it_gives_cold(calls):
    tqeuler.clear_caches()
    warm = [outcome(name, args) for name, args in calls]
    for (name, args), got in zip(calls, warm):
        tqeuler.clear_caches()
        assert got == outcome(name, args), (name, args)


def test_every_public_memo_is_drawn():
    # a memo added behind a public name of these modules has to join the property test
    memos = set(map(id, exactalg._MEMOS))
    public = {name for mod in (qkit, formulas, cfrac) for name, fn in vars(mod).items()
              if not name.startswith("_") and id(fn) in memos}
    assert public <= {*ARGS, *SIZED}
    assert {"pochhammer", "tk_at", "euler_hat"} <= public
