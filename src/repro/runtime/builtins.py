"""The mini-R builtin library.

Roughly the set of primitives the paper's benchmark programs need: vector
constructors, math, reductions, type tests and coercions, and a few I/O and
assertion helpers.  Builtins are strict (arguments already forced) and most
are marked ``pure`` so the optimizer may treat them as effect-free.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List

from .coerce import as_vector, coerce_vector, combine
from .env import REnvironment
from .rtypes import Kind, kind_lub
from .values import (
    NULL,
    RBuiltin,
    RClosure,
    RError,
    RNull,
    RVector,
    mk_dbl,
    mk_int,
    mk_lgl,
    mk_str,
)


def _one(args: List[Any], name: str) -> Any:
    if len(args) != 1:
        raise RError("%d arguments passed to '%s' which requires 1" % (len(args), name))
    return args[0]


def _scalar_int(v: Any, what: str) -> int:
    vec = coerce_vector(as_vector(v), Kind.INT)
    if len(vec.data) != 1 or vec.data[0] is None:
        raise RError("invalid '%s' argument" % what)
    return vec.data[0]


# ---------------------------------------------------------------------------
# math helpers applied element-wise
# ---------------------------------------------------------------------------

def _mathfn(name: str, freal, fcplx=None):
    def fn(args, vm):
        v = as_vector(_one(args, name))
        if v.kind == Kind.CPLX:
            if fcplx is None:
                raise RError("unsupported complex argument to %s" % name)
            return RVector(Kind.CPLX, [None if x is None else fcplx(x) for x in v.data])
        v = coerce_vector(v, Kind.DBL)
        out = []
        for x in v.data:
            if x is None:
                out.append(None)
            else:
                try:
                    out.append(freal(x))
                except ValueError:
                    out.append(float("nan"))
        return RVector(Kind.DBL, out)

    return fn


import cmath


def _bi_sqrt(args, vm):
    v = as_vector(_one(args, "sqrt"))
    if v.kind == Kind.CPLX:
        return RVector(Kind.CPLX, [None if x is None else cmath.sqrt(x) for x in v.data])
    v = coerce_vector(v, Kind.DBL)
    out = []
    for x in v.data:
        if x is None:
            out.append(None)
        elif x < 0:
            out.append(float("nan"))
        else:
            out.append(math.sqrt(x))
    return RVector(Kind.DBL, out)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _bi_c(args, vm):
    return combine(args)


def _filled(kind: Kind, n: int) -> RVector:
    fill = {Kind.LGL: False, Kind.INT: 0, Kind.DBL: 0.0, Kind.CPLX: 0j, Kind.STR: ""}
    if kind == Kind.LIST:
        return RVector(Kind.LIST, [NULL for _ in range(n)])
    return RVector(kind, [fill[kind]] * n)


def _bi_vector(args, vm):
    if not args:
        return RVector(Kind.LIST, [])
    mode = as_vector(args[0])
    if mode.kind != Kind.STR:
        raise RError("invalid 'mode' argument")
    name = mode.data[0]
    kinds = {
        "logical": Kind.LGL,
        "integer": Kind.INT,
        "numeric": Kind.DBL,
        "double": Kind.DBL,
        "complex": Kind.CPLX,
        "character": Kind.STR,
        "list": Kind.LIST,
    }
    if name not in kinds:
        raise RError("vector: cannot make a vector of mode '%s'" % name)
    n = _scalar_int(args[1], "length") if len(args) > 1 else 0
    return _filled(kinds[name], n)


def _mk_filled(kind: Kind, name: str):
    def fn(args, vm):
        n = _scalar_int(args[0], "length") if args else 0
        return _filled(kind, n)

    return fn


def _bi_rep(args, vm):
    if len(args) < 2:
        raise RError("rep: needs x and times")
    v = as_vector(args[0])
    times = _scalar_int(args[1], "times")
    return RVector(v.kind, list(v.data) * times)


def _bi_seq_len(args, vm):
    n = _scalar_int(_one(args, "seq_len"), "length.out")
    if n < 0:
        raise RError("argument must be coercible to non-negative integer")
    return RVector(Kind.INT, list(range(1, n + 1)))


def _bi_seq(args, vm):
    if len(args) == 1:
        return _bi_seq_len(args, vm)
    a = coerce_vector(as_vector(args[0]), Kind.DBL).data[0]
    b = coerce_vector(as_vector(args[1]), Kind.DBL).data[0]
    if len(args) >= 3:
        by = coerce_vector(as_vector(args[2]), Kind.DBL).data[0]
    else:
        by = 1.0 if b >= a else -1.0
    out = []
    x = a
    n = int(math.floor((b - a) / by + 1e-10)) + 1
    for i in range(max(n, 0)):
        out.append(a + i * by)
    return RVector(Kind.DBL, out)


def _bi_list(args, vm):
    return RVector(Kind.LIST, list(args))


# ---------------------------------------------------------------------------
# inspection / reductions
# ---------------------------------------------------------------------------

def _bi_length(args, vm):
    v = _one(args, "length")
    if isinstance(v, RNull):
        return mk_int(0)
    if isinstance(v, RVector):
        return mk_int(len(v.data))
    return mk_int(1)


def _numeric_reduce(name: str, init, f):
    def fn(args, vm):
        kind = Kind.LGL
        acc = init
        saw = False
        for a in args:
            v = as_vector(a)
            if not v.kind.is_numeric:
                raise RError("invalid 'type' argument to %s" % name)
            kind = kind_lub(kind, v.kind)
            for x in v.data:
                if x is None:
                    return RVector(max(kind, Kind.INT), [None])
                acc = f(acc, x) if saw or init is not None else x
                saw = True
        if init is None and not saw:
            raise RError("no non-missing arguments to %s" % name)
        rk = Kind.INT if kind in (Kind.LGL, Kind.INT) else kind
        if rk == Kind.INT:
            return mk_int(int(acc if acc is not None else 0))
        if rk == Kind.CPLX:
            return RVector(Kind.CPLX, [complex(acc)])
        return mk_dbl(float(acc))

    return fn


_bi_sum = _numeric_reduce("sum", 0, lambda a, x: a + x)
_bi_min = _numeric_reduce("min", None, lambda a, x: x if x < a else a)
_bi_max = _numeric_reduce("max", None, lambda a, x: x if x > a else a)


def _bi_prod(args, vm):
    return _numeric_reduce("prod", 1, lambda a, x: a * x)(args, vm)


def _bi_mean(args, vm):
    v = coerce_vector(as_vector(_one(args, "mean")), Kind.DBL)
    if not v.data:
        return mk_dbl(float("nan"))
    if any(x is None for x in v.data):
        return mk_dbl(None)
    return mk_dbl(sum(v.data) / len(v.data))


# ---------------------------------------------------------------------------
# type tests and coercions
# ---------------------------------------------------------------------------

def _is_kind(kind: Kind, name: str):
    def fn(args, vm):
        v = _one(args, name)
        return mk_lgl(isinstance(v, RVector) and v.kind == kind)

    return fn


def _as_kind(kind: Kind, name: str):
    def fn(args, vm):
        v = _one(args, name)
        if isinstance(v, RNull):
            return RVector(kind, [])
        return coerce_vector(as_vector(v), kind)

    return fn


def _bi_is_numeric(args, vm):
    v = _one(args, "is.numeric")
    return mk_lgl(isinstance(v, RVector) and v.kind in (Kind.INT, Kind.DBL))


def _bi_is_function(args, vm):
    return mk_lgl(isinstance(_one(args, "is.function"), (RBuiltin, RClosure)))


def _bi_is_null(args, vm):
    return mk_lgl(isinstance(_one(args, "is.null"), RNull))


def _bi_is_na(args, vm):
    v = _one(args, "is.na")
    if isinstance(v, RNull):
        return RVector(Kind.LGL, [])
    vec = as_vector(v)
    return RVector(Kind.LGL, [x is None for x in vec.data])


# ---------------------------------------------------------------------------
# output / misc
# ---------------------------------------------------------------------------

def _format_value(v: Any) -> str:
    if isinstance(v, RNull):
        return "NULL"
    if isinstance(v, RVector):
        if v.kind == Kind.LIST:
            return "list(%s)" % ", ".join(_format_value(x) for x in v.data)
        parts = []
        for x in v.data:
            if x is None:
                parts.append("NA")
            elif isinstance(x, bool):
                parts.append("TRUE" if x else "FALSE")
            elif isinstance(x, float):
                parts.append("%g" % x)
            elif isinstance(x, complex):
                parts.append("%g%+gi" % (x.real, x.imag))
            else:
                parts.append(str(x))
        return "[1] " + " ".join(parts)
    return repr(v)


def _bi_print(args, vm):
    v = _one(args, "print")
    vm.write_output(_format_value(v) + "\n")
    return v


def _bi_cat(args, vm):
    parts = []
    for a in args:
        if isinstance(a, RNull):
            continue
        v = as_vector(a)
        for x in v.data:
            if x is None:
                parts.append("NA")
            elif isinstance(x, bool):
                parts.append("TRUE" if x else "FALSE")
            elif isinstance(x, float):
                parts.append("%g" % x)
            else:
                parts.append(str(x))
    vm.write_output(" ".join(parts))
    return NULL


def _bi_paste0(args, vm):
    pieces = [coerce_vector(as_vector(a), Kind.STR) for a in args if not isinstance(a, RNull)]
    if not pieces:
        return mk_str("")
    n = max(len(p.data) for p in pieces)
    out = []
    for i in range(n):
        out.append("".join(str(p.data[i % len(p.data)]) for p in pieces))
    return RVector(Kind.STR, out)


def _bi_stop(args, vm):
    msg = "error"
    if args:
        v = as_vector(args[0])
        msg = str(v.data[0]) if v.data else "error"
    raise RError(msg)


def _bi_stopifnot(args, vm):
    for a in args:
        v = as_vector(a)
        if not v.data or any(x is not True and x != 1 for x in v.data):
            raise RError("not all arguments are TRUE")
    return NULL


def _bi_identical(args, vm):
    if len(args) != 2:
        raise RError("identical requires 2 arguments")
    return mk_lgl(_identical(args[0], args[1]))


def _identical(a: Any, b: Any) -> bool:
    if isinstance(a, RNull) or isinstance(b, RNull):
        return isinstance(a, RNull) and isinstance(b, RNull)
    if isinstance(a, RVector) and isinstance(b, RVector):
        if a.kind != b.kind or len(a.data) != len(b.data):
            return False
        if a.kind == Kind.LIST:
            return all(_identical(x, y) for x, y in zip(a.data, b.data))
        for x, y in zip(a.data, b.data):
            if (x is None) != (y is None):
                return False
            if x is None:
                continue
            if isinstance(x, float) and isinstance(y, float):
                if math.isnan(x) and math.isnan(y):
                    continue
            if x != y:
                return False
        return True
    return a is b


def _bi_complex(args, vm):
    """complex(real=, imaginary=) — positional: (length.out, real, imaginary)."""
    if len(args) == 2:
        re = coerce_vector(as_vector(args[0]), Kind.DBL)
        im = coerce_vector(as_vector(args[1]), Kind.DBL)
        n = max(len(re.data), len(im.data))
        out = []
        for i in range(n):
            r = re.data[i % len(re.data)]
            j = im.data[i % len(im.data)]
            out.append(None if r is None or j is None else complex(r, j))
        return RVector(Kind.CPLX, out)
    n = _scalar_int(args[0], "length.out") if args else 0
    return RVector(Kind.CPLX, [0j] * n)


def _bi_re(args, vm):
    v = coerce_vector(as_vector(_one(args, "Re")), Kind.CPLX)
    return RVector(Kind.DBL, [None if x is None else x.real for x in v.data])


def _bi_im(args, vm):
    v = coerce_vector(as_vector(_one(args, "Im")), Kind.CPLX)
    return RVector(Kind.DBL, [None if x is None else x.imag for x in v.data])


def _bi_mod(args, vm):
    v = as_vector(_one(args, "Mod"))
    if v.kind == Kind.CPLX:
        return RVector(Kind.DBL, [None if x is None else abs(x) for x in v.data])
    v = coerce_vector(v, Kind.DBL)
    return RVector(Kind.DBL, [None if x is None else abs(x) for x in v.data])


def _bi_abs(args, vm):
    v = as_vector(_one(args, "abs"))
    if v.kind == Kind.CPLX:
        return RVector(Kind.DBL, [None if x is None else abs(x) for x in v.data])
    kind = Kind.INT if v.kind in (Kind.LGL, Kind.INT) else Kind.DBL
    v = coerce_vector(v, kind)
    return RVector(kind, [None if x is None else abs(x) for x in v.data])


def _bi_nchar(args, vm):
    v = coerce_vector(as_vector(_one(args, "nchar")), Kind.STR)
    return RVector(Kind.INT, [None if x is None else len(x) for x in v.data])


def _bi_invisible(args, vm):
    return args[0] if args else NULL


def _bi_floor(args, vm):
    v = coerce_vector(as_vector(_one(args, "floor")), Kind.DBL)
    return RVector(Kind.DBL, [None if x is None else float(math.floor(x)) for x in v.data])


def _bi_ceiling(args, vm):
    v = coerce_vector(as_vector(_one(args, "ceiling")), Kind.DBL)
    return RVector(Kind.DBL, [None if x is None else float(math.ceil(x)) for x in v.data])


def _bi_round(args, vm):
    v = coerce_vector(as_vector(args[0]), Kind.DBL)
    digits = _scalar_int(args[1], "digits") if len(args) > 1 else 0
    return RVector(Kind.DBL, [None if x is None else round(x, digits) for x in v.data])


def _bi_trunc(args, vm):
    v = coerce_vector(as_vector(_one(args, "trunc")), Kind.DBL)
    return RVector(Kind.DBL, [None if x is None else float(math.trunc(x)) for x in v.data])


def _bi_environment(args, vm):
    raise RError("environment() reflection is not supported")


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def install_builtins(env: REnvironment) -> None:
    """Install every builtin into ``env`` (normally the global env's parent)."""

    def reg(name: str, fn, pure: bool = True) -> None:
        env.set(name, RBuiltin(name, fn, pure=pure))

    reg("c", _bi_c)
    reg("vector", _bi_vector)
    reg("logical", _mk_filled(Kind.LGL, "logical"))
    reg("integer", _mk_filled(Kind.INT, "integer"))
    reg("numeric", _mk_filled(Kind.DBL, "numeric"))
    reg("double", _mk_filled(Kind.DBL, "double"))
    reg("character", _mk_filled(Kind.STR, "character"))
    reg("complex", _bi_complex)
    reg("list", _bi_list)
    reg("rep", _bi_rep)
    reg("seq_len", _bi_seq_len)
    reg("seq", _bi_seq)
    reg("length", _bi_length)
    reg("sum", _bi_sum)
    reg("prod", _bi_prod)
    reg("min", _bi_min)
    reg("max", _bi_max)
    reg("mean", _bi_mean)
    reg("sqrt", _bi_sqrt)
    reg("abs", _bi_abs)
    reg("exp", _mathfn("exp", math.exp, cmath.exp))
    reg("log", _mathfn("log", math.log, cmath.log))
    reg("sin", _mathfn("sin", math.sin, cmath.sin))
    reg("cos", _mathfn("cos", math.cos, cmath.cos))
    reg("tan", _mathfn("tan", math.tan, cmath.tan))
    reg("atan", _mathfn("atan", math.atan))
    reg("atan2", lambda args, vm: mk_dbl(math.atan2(
        coerce_vector(as_vector(args[0]), Kind.DBL).data[0],
        coerce_vector(as_vector(args[1]), Kind.DBL).data[0])))
    reg("floor", _bi_floor)
    reg("ceiling", _bi_ceiling)
    reg("round", _bi_round)
    reg("trunc", _bi_trunc)
    reg("Re", _bi_re)
    reg("Im", _bi_im)
    reg("Mod", _bi_mod)
    reg("is.logical", _is_kind(Kind.LGL, "is.logical"))
    reg("is.integer", _is_kind(Kind.INT, "is.integer"))
    reg("is.double", _is_kind(Kind.DBL, "is.double"))
    reg("is.complex", _is_kind(Kind.CPLX, "is.complex"))
    reg("is.character", _is_kind(Kind.STR, "is.character"))
    reg("is.list", _is_kind(Kind.LIST, "is.list"))
    reg("is.numeric", _bi_is_numeric)
    reg("is.function", _bi_is_function)
    reg("is.null", _bi_is_null)
    reg("is.na", _bi_is_na)
    reg("as.logical", _as_kind(Kind.LGL, "as.logical"))
    reg("as.integer", _as_kind(Kind.INT, "as.integer"))
    reg("as.double", _as_kind(Kind.DBL, "as.double"))
    reg("as.numeric", _as_kind(Kind.DBL, "as.numeric"))
    reg("as.complex", _as_kind(Kind.CPLX, "as.complex"))
    reg("as.character", _as_kind(Kind.STR, "as.character"))
    reg("as.list", _as_kind(Kind.LIST, "as.list"))
    reg("nchar", _bi_nchar)
    reg("paste0", _bi_paste0)
    reg("identical", _bi_identical)
    reg("print", _bi_print, pure=False)
    reg("cat", _bi_cat, pure=False)
    reg("stop", _bi_stop, pure=False)
    reg("stopifnot", _bi_stopifnot, pure=False)
    reg("invisible", _bi_invisible)
    reg("environment", _bi_environment, pure=False)
