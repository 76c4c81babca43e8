"""One memo for every cached result.

`memo` keeps results in one dict, `_memo`, on the first argument: a
method's `self`, or the ring, extension or lattice of a module function.
The key is the function's module and qualified name and the Howell rows
`hrows`, a span's canonical key, of each further argument (None stays
None).  Results go with their object, so a fresh one computes its own.
"""

from functools import wraps


def memo(fn):
    name = f"{fn.__module__}.{fn.__qualname__}"
    # one wrapper per arity keeps a hit to one attribute read, one key and
    # one dict lookup
    if fn.__code__.co_argcount == 1:
        def cached(obj):
            try:
                return obj._memo[name]
            except (AttributeError, KeyError):
                pass
            return _keep(obj, name, fn(obj))
    elif fn.__code__.co_argcount == 2:
        def cached(obj, a):
            key = name, None if a is None else a.hrows
            try:
                return obj._memo[key]
            except (AttributeError, KeyError):
                pass
            return _keep(obj, key, fn(obj, a))
    else:
        def cached(obj, a, b):
            key = name, a.hrows, b.hrows
            try:
                return obj._memo[key]
            except (AttributeError, KeyError):
                pass
            return _keep(obj, key, fn(obj, a, b))
    cached.__defaults__ = fn.__defaults__
    return wraps(fn)(cached)


def _keep(obj, key, value):
    if not hasattr(obj, "_memo"):  # made on the first miss, once fn has run
        obj._memo = {}
    obj._memo[key] = value
    return value
