"""Property tests for the scalar fast paths of the shared runtime.

``coerce.arith`` / ``compare`` / ``unary`` answer same-kind scalar operands
before reaching their generic bodies, and feedback recording reads kind,
length and NA straight off an ``RVector``.  Each fast path must be
unobservable: the same result (kind, data, NA), the same ``RError``, the
same ``RVector.allocations`` count (the section 5.1 memory proxy) and the
same recorded feedback as the generic path it short-cuts.
"""

import math

from hypothesis import given, strategies as st

from repro.bytecode.compiler import CodeObject
from repro.bytecode.feedback import (
    MAX_CALL_ARG_PROFILES,
    BinopFeedback,
    CallFeedback,
    ObservedType,
)
from repro.runtime import coerce
from repro.runtime.builtins import install_builtins
from repro.runtime.env import REnvironment
from repro.runtime.rtypes import Kind, intern_rtype
from repro.runtime.values import (
    NULL,
    RBuiltin,
    RClosure,
    RPromise,
    RVector,
    rtype_of,
    rtype_quick,
)

_ELEMS = {
    Kind.LGL: st.booleans(),
    Kind.INT: st.one_of(
        st.integers(),
        st.sampled_from([0, 1, -1, 2**31, -(2**63), 2**80]),
    ),
    Kind.DBL: st.one_of(
        st.floats(),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308]),
    ),
    Kind.CPLX: st.complex_numbers(max_magnitude=1e6, allow_nan=False),
    Kind.STR: st.text(max_size=3),
}

#: kinds the binary fast paths can see as same-kind scalars
SCALAR_KINDS = (Kind.LGL, Kind.INT, Kind.DBL, Kind.STR)


def elems(kind):
    return st.one_of(st.none(), _ELEMS[kind])


def vectors(kind, min_size=0, max_size=2):
    return st.lists(elems(kind), min_size=min_size, max_size=max_size).map(
        lambda d: RVector(kind, d)
    )


def scalars(kinds=SCALAR_KINDS):
    return st.sampled_from(kinds).flatmap(lambda k: vectors(k, 1, 1))


list_vectors = st.lists(scalars(), max_size=2).map(lambda d: RVector(Kind.LIST, d))

#: anything an operator can be handed: scalars, length-0/2 vectors of every
#: kind (complex and list included), NULL and a non-vector
operands = st.one_of(
    scalars(),
    st.sampled_from(tuple(_ELEMS)).flatmap(lambda k: vectors(k, 0, 2)),
    list_vectors,
    st.just(NULL),
    st.just(RBuiltin("f", lambda args, vm: NULL)),
)

#: same-kind scalar pairs: the cases the binary fast paths take, and the
#: complex ones they must leave to the generic bodies
same_kind_pairs = st.sampled_from(tuple(_ELEMS)).flatmap(
    lambda k: st.tuples(vectors(k, 1, 1), vectors(k, 1, 1))
)


def _same_elem(x, y):
    if type(x) is not type(y):
        return False
    if isinstance(x, (float, complex)):
        return repr(x) == repr(y)  # NaN-aware and tells -0.0 from 0.0
    return x == y


def _outcome(fn, *args):
    """(allocations made, result or raised exception) of one call."""
    before = RVector.allocations
    try:
        result = fn(*args)
    except Exception as e:  # compared below: same type and message
        result = e
    return RVector.allocations - before, result


def assert_same_outcome(fast, generic, *args):
    fast_allocs, a = _outcome(fast, *args)
    generic_allocs, b = _outcome(generic, *args)
    assert fast_allocs == generic_allocs, args
    if isinstance(b, Exception):
        assert type(a) is type(b) and str(a) == str(b), (args, a, b)
        return
    assert isinstance(a, RVector), (args, a)
    assert a.kind is b.kind, (args, a, b)
    assert len(a.data) == len(b.data), (args, a, b)
    assert all(_same_elem(x, y) for x, y in zip(a.data, b.data)), (args, a, b)


@given(st.sampled_from(coerce.ARITH_OPS), same_kind_pairs)
def test_arith_scalar_fast_path_matches_generic(op, pair):
    assert_same_outcome(coerce.arith, coerce._arith_generic, op, *pair)


@given(st.sampled_from(coerce.ARITH_OPS), operands, operands)
def test_arith_matches_generic_on_any_operands(op, lhs, rhs):
    assert_same_outcome(coerce.arith, coerce._arith_generic, op, lhs, rhs)


@given(st.sampled_from(coerce.COMPARE_OPS), same_kind_pairs)
def test_compare_scalar_fast_path_matches_generic(op, pair):
    assert_same_outcome(coerce.compare, coerce._compare_generic, op, *pair)


@given(st.sampled_from(coerce.COMPARE_OPS), operands, operands)
def test_compare_matches_generic_on_any_operands(op, lhs, rhs):
    assert_same_outcome(coerce.compare, coerce._compare_generic, op, lhs, rhs)


@given(st.one_of(scalars(), operands))
def test_unary_minus_matches_generic(v):
    assert_same_outcome(coerce.unary, coerce._unary_generic, "-", v)


def test_fast_paths_cover_their_cases():
    """Spot checks of the cases the fast paths serve, including the
    result kind of integer division and power (double, via the generic
    path) and NA propagation."""
    i, j = RVector(Kind.INT, [7]), RVector(Kind.INT, [2])
    assert coerce.arith("%/%", i, j).data == [3]
    assert coerce.arith("%/%", i, j).kind is Kind.INT
    assert coerce.arith("/", i, j).kind is Kind.DBL
    assert coerce.arith("^", i, j).data == [49.0]
    assert coerce.arith("+", i, RVector(Kind.INT, [None])).data == [None]
    assert coerce.compare("<", RVector(Kind.STR, ["a"]), RVector(Kind.STR, ["b"])).data == [True]
    assert coerce.compare("==", RVector(Kind.DBL, [math.nan]), RVector(Kind.DBL, [1.0])).data == [False]
    assert coerce.unary("-", RVector(Kind.DBL, [0.0])).data[0] == 0.0
    assert math.copysign(1.0, coerce.unary("-", RVector(Kind.DBL, [0.0])).data[0]) == -1.0


# ---------------------------------------------------------------------------
# feedback recording
# ---------------------------------------------------------------------------

def reference_rtype_quick(value):
    """rtype_quick as specified: interned vector types, scalar NA read."""
    if isinstance(value, RVector):
        if len(value.data) == 1:
            return intern_rtype(value.kind, True, value.data[0] is None)
        return intern_rtype(value.kind, False, False)
    return rtype_of(value)


_base = REnvironment()
install_builtins(_base)
_closure = RClosure([], CodeObject("f"), _base, "f")
_unforced = RPromise(CodeObject("p"), _base)

#: every value class feedback can observe
values = st.one_of(
    st.sampled_from(tuple(_ELEMS)).flatmap(lambda k: vectors(k, 0, 3)),
    st.just(RVector(Kind.NULL, [])),
    list_vectors,
    scalars(),
    st.sampled_from([
        NULL,
        _closure,
        _base.get_function("c"),
        _base,
        _unforced,
        RPromise.forced_with(RVector(Kind.INT, [1])),
    ]),
)


def _obs_state(o):
    return (set(o.kinds), o.all_scalar, o.saw_na, o.count)


@given(values)
def test_rtype_quick_matches_reference(v):
    t = rtype_quick(v)
    ref = reference_rtype_quick(v)
    assert t == ref
    if isinstance(v, RVector):
        assert t is ref  # interned: no allocation per observation


@given(st.lists(values, max_size=6))
def test_observed_type_record_matches_record_type(vs):
    fast, ref = ObservedType(), ObservedType()
    for v in vs:
        fast.record(v)
        ref.record_type(reference_rtype_quick(v))
    assert _obs_state(fast) == _obs_state(ref)


@given(st.lists(st.tuples(values, values), max_size=4))
def test_binop_feedback_record_matches_reference(pairs):
    fb, lhs, rhs = BinopFeedback(), ObservedType(), ObservedType()
    for a, b in pairs:
        fb.record(a, b)
        lhs.record_type(reference_rtype_quick(a))
        rhs.record_type(reference_rtype_quick(b))
    assert _obs_state(fb.lhs) == _obs_state(lhs)
    assert _obs_state(fb.rhs) == _obs_state(rhs)


@given(st.lists(st.lists(values, max_size=3), max_size=7))
def test_call_feedback_arg_profiles_match_reference(calls):
    fb = CallFeedback()
    profiles = []
    for args in calls:
        fb.record(_closure, args)
        if profiles is not None:
            prof = tuple(reference_rtype_quick(a).kind for a in args)
            if prof not in profiles:
                if len(profiles) >= MAX_CALL_ARG_PROFILES:
                    profiles = None
                else:
                    profiles.append(prof)
    assert fb.arg_profiles == profiles
    assert fb.count == len(calls)

