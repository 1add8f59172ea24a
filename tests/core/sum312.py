"""The built-in ``sum()`` of Python 3.12 and later, in Python.

Since 3.12, ``sum()`` adds floats with Neumaier's compensated summation
instead of plain left-to-right addition, so a float total can differ in its
last bits between interpreter versions.  Installing :func:`compensated_sum`
as ``builtins.sum`` on an older interpreter shows which results would move
on a newer one.
"""

import math


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 computes it (int fast path, then Neumaier)."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            if type(item) is int or type(item) is bool:
                result += item
                continue
            result = result + item
            break
        else:
            return result
    if type(result) is not float:
        for item in items:
            result = result + item
        return result
    total, compensation = result, 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                compensation += (total - t) + item
            else:
                compensation += (item - t) + total
            total = t
            continue
        if isinstance(item, int) and -(2**63) <= item < 2**63:
            total += float(item)  # ints that fit a C long: plain addition
            continue
        if compensation and math.isfinite(compensation):
            total += compensation
        result = total + item
        for item in items:
            result = result + item
        return result
    if compensation and math.isfinite(compensation):
        total += compensation
    return total
